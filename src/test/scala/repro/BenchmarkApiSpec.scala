package repro

import org.apache.spark.sql.functions.col

import repro.core._
import repro.core.Centroids.SigFreq
import repro.exp.Workloads
import repro.scan.Dss
import repro.series.SeriesGen

/** Every program name the benchmark (`perfbench/`, a separate build that
  * `sbt test` does not compile) calls, with the benchmark's own argument
  * shapes. Renaming one of them, or changing its parameters, fails
  * `Test/compile` here instead of breaking only the benchmark.
  */
class BenchmarkApiSpec extends SparkSpec {

  test("the names the benchmark calls keep their shapes") {
    val n = 1000
    val p: ClimberParams =
      Workloads.benchParams.copy(numPivots = 24, prefixLen = 4, alpha = 0.3, capacity = 200)
    val df = SeriesGen.generate(spark, "RandomWalk", n, 3).cache()
    val index: ClimberIndex = ClimberIndex.build(spark, df, p)
    try {
      assert(index.data.columns.toSet == Set("id", "series", "group", "part"))
      val stats: BuildStats = index.stats
      assert(stats.totalSec > 0 && stats.skeletonBytes > 0)
      assert(index.data.filter(col("group") === 0).count() == stats.g0Rows)
      val placed = index.data.select("id", "part").collect().map(r => (r.getLong(0), r.getInt(1)))
      assert(placed.map(_._1).sorted.toSeq == (0L until n))
      assert(placed.forall { case (_, part) => part >= 0 && part < index.skeleton.numPartitions })
      assert(SeriesGen.Lengths("RandomWalk") == 256)

      // Per-layer timings (perfbench's Layers): PAA, P⁴, Algorithms 1-2, the pivot pick.
      val series = (0L until 200L).map(SeriesGen.local("RandomWalk", _, 3)).toArray
      val paas = series.map(Paa.of(_, p.paaW))
      val sigs = paas.map(index.pivots.dual)
      val groups = sigs.indices.map(i =>
        GroupAssign.assign(i.toLong, sigs(i)._1, sigs(i)._2, index.skeleton.centroids, p.decay))
      assert(groups.forall(g => g >= 0 && g <= index.skeleton.centroids.size))
      def aggregate(xs: Seq[Array[Int]]): Seq[SigFreq] =
        xs.groupBy(_.toSeq).map { case (s, ys) => SigFreq(s.toArray, ys.size.toLong) }.toSeq
      val riAgg = aggregate(sigs.map(_._2).toSeq)
      val rsAgg = aggregate(sigs.map(_._1).toSeq)
      val centroids = Centroids.compute(riAgg, p.alpha, p.capacity, p.eps, p.maxCentroids)
      val skel = IndexSkeleton.build(riAgg, rsAgg, p.alpha, p.capacity, p.eps, p.decay, p.maxCentroids)
      assert(skel.groups.size == centroids.size + 1 && skel.numPartitions > 0)
      assert(index.skeleton.groups.flatMap(_.root.allNodes.map(_.depth)).max >= 0)
      val sample = df.sample(withReplacement = false, p.alpha, p.seed)
        .withColumn("paa", Paa.paaUdf(p.paaW)(col("series"))).cache()
      try {
        val pivots = Pivots.select(sample, "paa", p.numPivots, p.prefixLen, p.seed)
        assert(pivots.vectors.map(_.toSeq).toSeq == index.pivots.vectors.map(_.toSeq).toSeq)
      } finally sample.unpersist()

      // The query path, untraced and traced, and the exact scans.
      val variant: ClimberQuery.Variant = ClimberQuery.Adaptive(4)
      assert(variant.label == "CLIMBER-kNN-Adaptive-4X")
      val (qid, q) = (7L, series(7))
      val knn = ClimberQuery.knn(index, q, 10, variant, qid)
      val plan = ClimberQuery.planFor(index, q, 10, variant, qid)
      assert(ClimberQuery.scanTopK(index.data, "part", plan.partitions, q, 10) == knn)
      assert(ClimberQuery.planFor(index, q, 10, ClimberQuery.Knn, qid).partitions.length >= 1)
      val exact = Dss.knn(df, q, 10)
      assert(exact.head == ((qid, 0.0)))
      assert(Dss.knnBatch(spark, df, Seq(qid -> q), 10) == Map(qid -> exact.map(_._1)))
    } finally {
      index.data.unpersist(blocking = true)
      df.unpersist()
    }
  }
}
