package repro.scan

import java.nio.{ByteBuffer, ByteOrder}

import org.apache.spark.{SparkEnv, SparkException}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.columnar.CachedBatch
import org.apache.spark.sql.execution.columnar.{DefaultCachedBatch, InMemoryRelation}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, LongType, StructField, StructType}
import repro.SparkSpec
import repro.core.{ClimberIndex, ClimberParams, ClimberQuery}
import repro.isax.DpiSax
import repro.series.SeriesGen

/** `Dss.cacheByPart`'s layout, and the scan's direct read of its cached
  * batches checked against the `toRdd` row path.
  */
class CachedLayoutSpec extends SparkSpec {

  private val params = ClimberParams(paaW = 16, numPivots = 24, prefixLen = 4,
    alpha = 0.3, capacity = 200, seed = 7)
  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 2000, seed = 1).cache()
  private lazy val index = ClimberIndex.build(spark, df, params)
  private val queries = Array(7L, 901L, 1999L).map(SeriesGen.local("RandomWalk", _, 1))

  /** Five partitions of 150 RandomWalk rows each but the last, which is
    * empty. Partition 0's ids are one constant, 1's consecutive, 2's
    * scattered and 3's three scattered values repeated.
    */
  private lazy val encoded = {
    val rnd = new scala.util.Random(5)
    val few = Array.fill(3)(rnd.nextLong())
    val ids = Seq.tabulate(150)(_ => 42L) ++ Seq.tabulate(150)(1000L + _) ++
      Seq.fill(150)(rnd.nextLong()) ++ Seq.fill(150)(few(rnd.nextInt(3)))
    val rows = ids.zipWithIndex.map { case (id, i) =>
      Row(id, SeriesGen.local("RandomWalk", i.toLong, 2).toSeq, i / 150) }
    val schema = StructType(Seq(StructField("id", LongType), StructField("series", ArrayType(DoubleType)),
      StructField("part", IntegerType)))
    Dss.cacheByPart(spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema), 5)._1
  }

  private def builder(data: DataFrame) = data.queryExecution.withCachedData match {
    case r: InMemoryRelation => r.cacheBuilder
    case other => fail(s"not cached as a whole: $other")
  }

  private def bits(got: Seq[(Long, Double)]): Seq[(Long, Long)] =
    got.map { case (id, d) => (id, java.lang.Double.doubleToLongBits(d)) }

  /** Each partition's runs, as (ids, distance keys) per query, from the
    * batch reader over `data`'s cache and from `data`'s `toRdd` row path,
    * at K = 300, which keeps every row of a layout partition.
    */
  private def paths(data: DataFrame): (Seq[Seq[(Seq[Long], Seq[Long])]], Seq[Seq[(Seq[Long], Seq[Long])]]) = {
    val batches = Dss.job(data, checkPart = true, queries, 300)
    assert(batches.rdd eq Dss.buffers(data))
    val s = data.schema
    val rows = Dss.Job(data.queryExecution.toRdd,
      new Dss.Rank(s.fieldIndex("id"), s.fieldIndex("series"), s.fieldIndex("part"), queries, 300))
    def runs(job: Dss.Job[_]) = job.runs(0 until batches.rdd.getNumPartitions)
      .map(_.map(r => (r.ids.toSeq, r.keys.toSeq)).toSeq).toSeq
    (runs(batches), runs(rows))
  }

  private def assertPathsAgree(data: DataFrame): Unit = {
    val (batches, rows) = paths(data)
    assert(batches == rows)
    assert(batches.map(_.head._1.size).sum == data.count())
  }

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
    val q = Array(SeriesGen.local("RandomWalk", 3L, 1))
    val direct = Dss.job(index.data, checkPart = true, q, 10)
    assert(direct.rdd eq Dss.buffers(index.data))
    assert(direct.task.isInstanceOf[Dss.RankBatches])
    val projected = index.data.select("part", "series", "id")
    val planned = Dss.job(projected, checkPart = true, q, 10)
    assert(planned.rdd eq projected.queryExecution.toRdd)
    assert(planned.task.isInstanceOf[Dss.Rank])
  }

  test("batches and toRdd agree on every layout partition") {
    val n = index.skeleton.numPartitions
    val dpisax = DpiSax.index(spark, df, capacity = 200, alpha = 0.3, seed = 3)
    try {
      assertPathsAgree(index.data)
      assertPathsAgree(dpisax.data)
      // Uncached and projected copies of the layout go through toRdd alone.
      val uncached = spark.createDataFrame(index.data.rdd, index.data.schema).repartitionById(n, col("part"))
      val projected = index.data.select("part", "series", "id")
      val parts = Seq(0, n / 2, n - 1).distinct
      val cached = Dss.topK(index.data, parts, queries, 300).map(bits).toSeq
      for (data <- Seq(uncached, projected))
        assert(Dss.topK(data, parts, queries, 300).map(bits).toSeq == cached)
    } finally dpisax.data.unpersist()
  }

  test("batches and toRdd agree on multi-batch partitions") {
    val small = spark.newSession()
    small.conf.set("spark.sql.inMemoryColumnarStorage.batchSize", "16")
    val n = index.skeleton.numPartitions
    val (data, rows) = Dss.cacheByPart(small.createDataFrame(index.data.rdd, index.data.schema), n)
    try {
      assert(rows.toSeq == index.partRows.toSeq)
      val batches = Dss.buffers(data).mapPartitions(it => Iterator(it.size)).collect()
      assert(batches.max > 1, batches.toSeq)
      assertPathsAgree(data)
      val all = 0 until n
      assert(Dss.topK(data, all, queries, 300).map(bits).toSeq ==
        Dss.topK(index.data, all, queries, 300).map(bits).toSeq)
    } finally data.unpersist()
  }

  test("batches and toRdd agree on each long id encoding") {
    // Spark's ids in the buffers of partitions 0–3: run-length, delta,
    // plain and dictionary encoded (the compression type id after the
    // column's null count).
    val id = encoded.schema.fieldIndex("id")
    val schemes = Dss.buffers(encoded).mapPartitions(_.map(b => ByteBuffer
      .wrap(b.asInstanceOf[DefaultCachedBatch].buffers(id)).order(ByteOrder.nativeOrder()).getInt(4)))
      .collect().toSeq
    assert(schemes == Seq(1, 5, 0, 2))
    assertPathsAgree(encoded)
  }

  test("batches and toRdd agree on an empty partition") {
    assert(Dss.buffers(encoded).mapPartitions(it => Iterator(it.size)).collect().last == 0)
    val (batches, rows) = paths(encoded)
    assert(batches.last == Seq.fill(queries.length)((Nil, Nil)))
    assert(rows.last == batches.last)
    assert(Dss.topK(encoded, Seq(4), queries, 10).forall(_.isEmpty))
  }

  test("null series, foreign parts and lengths fail both paths") {
    import spark.implicits._
    def both(rows: Seq[(Long, Array[Double], Int)], q: Array[Double], message: String): Unit = {
      def fails(data: DataFrame): Unit = {
        val e = intercept[SparkException](Dss.topK(data, Seq(0), Array(q), 5))
        assert(e.getMessage.contains(message), e.getMessage)
      }
      // The uncached scan runs first: once the plan is cached, it reads the cache.
      fails(rows.toDF("id", "series", "part").coalesce(1))
      val cached = rows.toDF("id", "series", "part").coalesce(1).cache()
      try {
        assert(Dss.job(cached, checkPart = true, Array(q), 5).task.isInstanceOf[Dss.RankBatches])
        fails(cached)
      } finally cached.unpersist()
    }
    both(Seq((0L, Array(1.0, 2.0), 0), (7L, null, 0)), Array(0.0, 0.0), "the series of id 7 is null")
    both(Seq((0L, Array(1.0, 2.0), 0), (1L, Array(1.0, 2.0), 1)), Array(0.0, 0.0),
      "row with part = 1 in Spark partition 0")
    both(Seq((0L, Array(1.0, 2.0), 0), (1L, Array(1.0), 0)), Array(0.0, 0.0), "length mismatch 1 vs 2")
  }

  test("a scan rejects columns of other types") {
    val q = queries.take(1)
    for (data <- Seq(index.data.withColumn("id", col("id").cast("int")),
                     index.data.withColumn("part", col("part").cast("long")),
                     index.data.withColumn("series", col("series").cast("array<float>")))) {
      val e = intercept[IllegalArgumentException](Dss.topK(data, Seq(0), q, 5))
      assert(e.getMessage.contains("a scan reads id: long, series: array<double> and part: int"), e.getMessage)
    }
  }

  test("a series column of another layout fails the batch reader") {
    val batch = Dss.buffers(encoded).first().asInstanceOf[DefaultCachedBatch]
    val series = encoded.schema.fieldIndex("series")
    def withSeries(bytes: Array[Byte]): Unit = {
      val buffers = batch.buffers.updated(series, bytes)
      val rdd = spark.sparkContext.parallelize(Seq[CachedBatch](batch.copy(buffers = buffers)), 1)
      val e = intercept[SparkException](Dss.Job(rdd, new Dss.RankBatches(encoded.schema.fieldIndex("id"),
        series, -1, queries, 5)).run(Seq(0)))
      assert(e.getMessage.contains(s"does not hold ${batch.numRows} UnsafeArrayData rows"), e.getMessage)
    }
    val bytes = batch.buffers(series)
    withSeries(bytes.dropRight(8))
    withSeries(bytes ++ Array.fill[Byte](4)(0))
    // A compression type id before the rows, as Spark writes for primitive columns.
    withSeries(bytes.take(4) ++ Array.fill[Byte](4)(0) ++ bytes.drop(4))
  }

  test("the task of one scan at W = 256 is under 8 KB") {
    val q = SeriesGen.local("RandomWalk", 3L, 1)
    assert(q.length == 256)
    val job = Dss.job(index.data, checkPart = true, Array(q), 500)
    assert(job.rdd eq Dss.buffers(index.data))
    val bytes = SparkEnv.get.closureSerializer.newInstance().serialize((job.rdd, job.task): AnyRef).limit()
    assert(bytes < 8 * 1024, s"$bytes B")
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
      assert(Dss.job(fresh, checkPart = false, Array(q), 20).rdd eq Dss.buffers(fresh))
      val got = Dss.knn(fresh, q, 20)
      assert(got.head == ((11L, 0.0)))
      assert(builder(fresh).isCachedColumnBuffersLoaded)
      val plan = fresh.queryExecution.toRdd
      val s = fresh.schema
      val viaToRdd = Dss.Job(plan, new Dss.Rank(s.fieldIndex("id"), s.fieldIndex("series"), -1,
        Array(q), 20)).run(0 until plan.getNumPartitions).head
      assert(bits(got) == bits(viaToRdd))
    } finally fresh.unpersist()
  }
}
