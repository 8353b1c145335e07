package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.exp.Workloads
import repro.series.SeriesGen

class ClimberIndexSpec extends SparkSpec {

  private val params = ClimberParams(paaW = 16, numPivots = 24, prefixLen = 4,
    alpha = 0.3, capacity = 200, seed = 7)
  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 2000, seed = 1).cache()
  private lazy val index = ClimberIndex.build(spark, df, params)

  test("every record is assigned to exactly one group and partition") {
    assert(index.data.count() == 2000)
    assert(index.data.filter(col("group").isNull || col("part").isNull).count() == 0)
  }

  test("assigned partitions are within the skeleton's partition range") {
    val parts = index.data.select("part").distinct().collect().map(_.getInt(0))
    assert(parts.forall(p => p >= 0 && p < index.skeleton.numPartitions))
  }

  test("assigned groups exist in the skeleton") {
    val gs = index.data.select("group").distinct().collect().map(_.getInt(0))
    assert(gs.forall(g => g >= 0 && g < index.skeleton.groups.size))
  }

  test("record partitions belong to the record's group") {
    val rows = index.data.select("group", "part").distinct().collect()
    rows.foreach { r =>
      val g = index.skeleton.groups(r.getInt(0))
      assert((g.root.partitions :+ g.defaultPartition).contains(r.getInt(1)))
    }
  }

  test("Spark partition p holds exactly the rows of CLIMBER partition p") {
    assert(index.data.rdd.getNumPartitions == index.skeleton.numPartitions)
    assert(index.data.filter(spark_partition_id() =!= col("part")).count() == 0)
  }

  test("the skeleton produces more than one group on clustered-ish data") {
    assert(index.skeleton.groups.size > 2)
  }

  test("the fall-back group G0 holds few records") {
    val g0 = index.data.filter(col("group") === 0).count()
    assert(g0 < 2000 * 0.2, s"G0 unexpectedly large: $g0")
  }

  test("placement in the DataFrame agrees with driver-side place()") {
    val rows = index.data.select("id", "group", "part").limit(100).collect()
    rows.foreach { r =>
      val paa = Paa.of(SeriesGen.local("RandomWalk", r.getLong(0), 1), params.paaW)
      val (g, p) = index.skeleton.place(index.pivots.rankSensitive(paa))
      assert(g == r.getInt(1) && p == r.getInt(2))
    }
  }

  test("the index stores only the columns queries read") {
    assert(index.data.columns.toSeq == Seq("id", "series", "group", "part"))
  }

  test("build is deterministic in the seed") {
    val again = ClimberIndex.build(spark, df, params)
    assert(again.skeleton.numPartitions == index.skeleton.numPartitions)
    assert(again.skeleton.groups.size == index.skeleton.groups.size)
    def bytes(o: AnyRef): Seq[Byte] = {
      val bos = new java.io.ByteArrayOutputStream()
      val oos = new java.io.ObjectOutputStream(bos)
      oos.writeObject(o); oos.close()
      bos.toByteArray.toSeq
    }
    assert(bytes(again.skeleton) == bytes(index.skeleton))
    val a = index.data.select("id", "group", "part").collect().map(r => (r.getLong(0), r.getInt(1), r.getInt(2))).sortBy(_._1)
    val b = again.data.select("id", "group", "part").collect().map(r => (r.getLong(0), r.getInt(1), r.getInt(2))).sortBy(_._1)
    assert(a.toSeq == b.toSeq)
    again.data.unpersist()
  }

  test("partition sizes respect the soft capacity within a sampling factor") {
    val sizes = index.data.groupBy("part").count().collect().map(_.getLong(1))
    // c is a soft constraint estimated from a sample (§V Step 3); allow slack.
    assert(sizes.max <= params.capacity * 6, s"max partition ${sizes.max}")
  }

  test("partRows counts every partition's rows, and the layout stats come from it") {
    val counted = index.data.groupBy("part").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val rows = index.partRows
    assert(rows.length == index.skeleton.numPartitions)
    assert(rows.indices.forall(p => rows(p) == counted.getOrElse(p, 0L)))
    assert(rows.sum == 2000)
    val s = index.stats
    assert(s.overflowParts == counted.values.count(_ > params.capacity))
    assert(s.maxPartRows == counted.values.max)
    val g0 = index.skeleton.groups(0).root.partitions.toSet
    assert(s.g0Rows == index.data.filter(col("part").isin(g0.toSeq: _*)).count())
    assert(s.g0Rows == index.data.filter(col("group") === 0).count())
  }

  test("build stats are populated and consistent") {
    val s = index.stats
    assert(s.totalSec >= s.skeletonSec && s.totalSec >= s.redistributeSec)
    assert(s.numGroups == index.skeleton.groups.size)
    assert(s.numPartitions == index.skeleton.numPartitions)
    assert(s.skeletonBytes > 0)
  }

  test("the skeleton phase timings are non-negative and split skeletonSec") {
    val s = index.stats
    val phases = Seq(s.pivotsSec, s.aggregateSec, s.skeletonBuildSec)
    assert(phases.forall(_ >= 0), phases)
    assert(phases.sum <= s.skeletonSec, (phases, s.skeletonSec))
  }

  test("the skeleton is small relative to the data (global-index property)") {
    // Paper Fig. 8(b): the global index is tiny (MBs for TBs of data).
    assert(index.stats.skeletonBytes < 5 * 1024 * 1024)
  }

  test("pivot count and prefix length follow the parameters") {
    assert(index.pivots.vectors.length == params.numPivots)
    assert(index.pivots.prefixLen == params.prefixLen)
  }

  // ---------------- Degenerate inputs (DESIGN.md §7) ----------------

  test("a sample smaller than r yields fewer pivots, and the index still answers") {
    // 60 series at α = 0.3 sample 16 rows for r = 200 pivots.
    val small = SeriesGen.generate(spark, "RandomWalk", 60, seed = 1)
    val si = ClimberIndex.build(spark, small, Workloads.benchParams.copy(alpha = 0.3))
    assert(si.pivots.vectors.length == 16)
    assert(si.pivots.prefixLen == 10)
    val res = ClimberQuery.knn(si, SeriesGen.local("RandomWalk", 5, 1), 10, ClimberQuery.Adaptive(4), 5)
    assert(res.size == 10)
    assert(res.head == ((5L, 0.0)))
    si.data.unpersist()
  }

  test("an empty sample fails loudly") {
    val tiny = SeriesGen.generate(spark, "RandomWalk", 3, seed = 1)
    val e = intercept[IllegalArgumentException](
      ClimberIndex.build(spark, tiny, Workloads.benchParams.copy(alpha = 0.01)))
    assert(e.getMessage.contains("empty sample — cannot select pivots"), e.getMessage)
  }

  test("identical series share one partition past the capacity, and queries still return K") {
    // Every pivot distance ties, so every record has one P⁴→ and one trie
    // leaf: the documented capacity degrade, 500 rows at c = 50.
    val same = spark.range(0, 500, 1, 4).select(col("id"),
      udf((_: Long) => SeriesGen.local("RandomWalk", 0, 1)).apply(col("id")).as("series"))
    val si = ClimberIndex.build(spark, same, Workloads.benchParams.copy(capacity = 50))
    assert(si.pivots.vectors.length == 1)
    val parts = si.data.groupBy("part").count().collect().map(r => (r.getInt(0), r.getLong(1)))
    assert(parts.length == 1 && parts.head._2 == 500L)
    val res = ClimberQuery.knn(si, SeriesGen.local("RandomWalk", 0, 1), 10, ClimberQuery.Adaptive(4))
    assert(res.size == 10 && res.forall(_._2 == 0.0))
    si.data.unpersist()
  }

  test("a series whose PAA holds a NaN fails the build loudly") {
    val nanId = 17L
    val withNan = spark.range(0, 300, 1, 4).select(col("id"), udf { (id: Long) =>
      val s = SeriesGen.local("RandomWalk", id, 1)
      if (id == nanId) s(40) = Double.NaN
      s
    }.apply(col("id")).as("series"))
    val e = intercept[Exception](ClimberIndex.build(spark, withNan, Workloads.benchParams.copy(capacity = 50)))
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
      c.getMessage.contains(s"series $nanId has a NaN in its PAA")), causes.map(_.toString).mkString("\n"))
  }
}
