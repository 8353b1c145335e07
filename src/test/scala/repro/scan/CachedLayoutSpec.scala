package repro.scan

import org.apache.spark.SparkEnv
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.{ClimberIndex, ClimberParams, ClimberQuery}
import repro.isax.DpiSax
import repro.series.SeriesGen

/** `Dss.cacheByPart`'s layout and `Dss.rows`' direct decode of it. */
class CachedLayoutSpec extends SparkSpec {

  private val params = ClimberParams(paaW = 16, numPivots = 24, prefixLen = 4,
    alpha = 0.3, capacity = 200, seed = 7)
  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 2000, seed = 1).cache()
  private lazy val index = ClimberIndex.build(spark, df, params)
  private val columns = Seq("id", "series", "part")

  private def builder(data: DataFrame) = data.queryExecution.withCachedData match {
    case r: InMemoryRelation => r.cacheBuilder
    case other => fail(s"not cached as a whole: $other")
  }

  private def bits(got: Seq[(Long, Double)]): Seq[(Long, Long)] =
    got.map { case (id, d) => (id, java.lang.Double.doubleToLongBits(d)) }

  test("the CLIMBER and DPiSAX layouts cut their cached buffers' lineage") {
    val dpisax = DpiSax.index(spark, df, capacity = 200, alpha = 0.3, seed = 3)
    try for ((data, rows) <- Seq(index.data -> index.partRows, dpisax.data -> dpisax.partRows)) {
      val b = Dss.buffers(data)
      assert(b.isCheckpointed)
      assert(spark.sparkContext.getPersistentRDDs.contains(b.id))
      assert(rows.toSeq == data.rdd.mapPartitions(it => Iterator(it.size.toLong)).collect().toSeq)
    } finally dpisax.data.unpersist()
  }

  test("Dss.buffers fails on a DataFrame that is not read from a cache") {
    val e = intercept[IllegalStateException](Dss.buffers(index.data.select("id")))
    assert(e.getMessage.contains("not read from its cache"), e.getMessage)
  }

  test("a scan of a loaded cache decodes its buffers; a projection keeps its SQL plan") {
    val (direct, idx) = Dss.rows(index.data, columns)
    assert(direct.dependencies.map(_.rdd) == Seq(Dss.buffers(index.data)))
    assert(idx == Seq(0, 1, 2))
    val projected = index.data.select("part", "series", "id")
    val (planned, pIdx) = Dss.rows(projected, columns)
    assert(planned eq projected.queryExecution.toRdd)
    assert(pIdx == Seq(2, 1, 0))
  }

  test("direct decode and toRdd give the same ids and distance bits") {
    val n = index.skeleton.numPartitions
    val uncached = spark.createDataFrame(index.data.rdd, index.data.schema).repartitionById(n, col("part"))
    val projected = index.data.select("part", "series", "id")
    val qs = Array(7L, 901L, 1999L).map(SeriesGen.local("RandomWalk", _, 1))
    val parts = Seq(0, n / 2, n - 1).distinct
    def viaToRdd(data: DataFrame): Seq[Seq[(Long, Long)]] = {
      val s = data.schema
      Dss.rank(data.queryExecution.toRdd, new Dss.Rank(s.fieldIndex("id"), s.fieldIndex("series"),
        s.fieldIndex("part"), qs, 300), parts).map(bits).toSeq
    }
    val direct = Dss.topK(index.data, parts, qs, 300).map(bits).toSeq
    assert(direct == viaToRdd(index.data))
    for (data <- Seq(uncached, projected)) {
      assert(Dss.topK(data, parts, qs, 300).map(bits).toSeq == direct)
      assert(viaToRdd(data) == direct)
    }
  }

  test("the task of one scan at W = 256 serializes to under 10 KB") {
    val (rdd, _) = Dss.rows(index.data, columns)
    val q = SeriesGen.local("RandomWalk", 3L, 1)
    assert(q.length == 256)
    val task = new Dss.Rank(0, 1, 2, Array(q), 500)
    val bytes = SparkEnv.get.closureSerializer.newInstance().serialize((rdd, task): AnyRef).limit()
    assert(bytes < 10 * 1024, s"$bytes B")
  }

  test("a dropped index cache fails later queries instead of rebuilding them") {
    val sc = spark.sparkContext
    val built = ClimberIndex.build(spark, df, params.copy(seed = 8))
    val q = SeriesGen.local("RandomWalk", 5L, 1)
    assert(ClimberQuery.knn(built, q, 10, ClimberQuery.Knn).head == ((5L, 0.0)))
    val id = Dss.buffers(built.data).id
    built.data.unpersist(blocking = true)
    assert(!sc.getPersistentRDDs.contains(id))
    val persisted = sc.getPersistentRDDs.keySet.toSet
    val e = intercept[IllegalStateException](ClimberQuery.knn(built, q, 10, ClimberQuery.Knn))
    assert(e.getMessage.contains("cache was dropped"), e.getMessage)
    intercept[IllegalStateException](Dss.knn(built.data, q, 10))
    assert(sc.getPersistentRDDs.keySet.toSet == persisted)
  }

  test("a cache not loaded yet is decoded directly, and the scan loads it") {
    val fresh = SeriesGen.generate(spark, "RandomWalk", 300, seed = 4).cache()
    try {
      assert(!builder(fresh).isCachedColumnBuffersLoaded)
      val q = SeriesGen.local("RandomWalk", 11L, 4)
      val (direct, _) = Dss.rows(fresh, Seq("id", "series"))
      assert(direct.dependencies.map(_.rdd) == Seq(Dss.buffers(fresh)))
      val got = Dss.knn(fresh, q, 20)
      assert(got.head == ((11L, 0.0)))
      assert(builder(fresh).isCachedColumnBuffersLoaded)
      val plan = fresh.queryExecution.toRdd
      val s = fresh.schema
      val viaToRdd = Dss.rank(plan, new Dss.Rank(s.fieldIndex("id"), s.fieldIndex("series"), -1,
        Array(q), 20), 0 until plan.getNumPartitions).head
      assert(bits(got) == bits(viaToRdd))
    } finally fresh.unpersist()
  }
}
