package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.Centroids.SigFreq

/** Per-layer microbenchmarks: direct, timed calls into the public functions
  * of the build path, on a driver-local sample the size of the skeleton's
  * (α · n records). Each figure is the median of `reps` repetitions.
  */
object Layers {

  final case class Result(sample: Int, paaUsPerSeries: Double, dualUs: Double,
                          assignUsPerRecord: Double, centroidsComputeMs: Double,
                          skeletonBuildMs: Double, pivotsSelectS: Double)

  private def medianNs(reps: Int)(f: => Unit): Double =
    Stats.median((1 to reps).map { _ => val t0 = System.nanoTime(); f; (System.nanoTime() - t0).toDouble })

  private def aggregate(sigs: Seq[Array[Int]]): Seq[SigFreq] =
    sigs.groupBy(_.toSeq).map { case (s, xs) => SigFreq(s.toArray, xs.size.toLong) }.toSeq

  def run(tracer: Tracer, parent: Int, index: ClimberIndex, df: DataFrame,
          local: Array[Array[Double]], seed: Long, reps: Int = 3): Result = {
    val p = index.params
    val rng = new java.util.Random(seed * 31 + 5)
    val ids = local.indices.filter(_ => rng.nextDouble() < p.alpha).toArray
    val series = ids.map(local(_))
    var paas = Array.empty[Array[Double]]
    var sigs = Array.empty[(Array[Int], Array[Int])]
    val paaNs = tracer.span("paa", parent)(_ => medianNs(reps) { paas = series.map(Paa.of(_, p.paaW)) })
    val dualNs = tracer.span("pivots.dual", parent)(_ => medianNs(reps) { sigs = paas.map(index.pivots.dual) })
    val centroids = index.skeleton.centroids
    val assignNs = tracer.span("group.assign", parent)(_ => medianNs(reps) {
      var i = 0
      while (i < ids.length) {
        GroupAssign.assign(ids(i).toLong, sigs(i)._1, sigs(i)._2, centroids, p.decay); i += 1
      }
    })
    val riAgg = aggregate(sigs.map(_._2).toSeq)
    val rsAgg = aggregate(sigs.map(_._1).toSeq)
    val centroidsNs = tracer.span("centroids.compute", parent)(_ => medianNs(reps) {
      Centroids.compute(riAgg, p.alpha, p.capacity, p.eps, p.maxCentroids)
    })
    val skeletonNs = tracer.span("skeleton.build", parent)(_ => medianNs(reps) {
      IndexSkeleton.build(riAgg, rsAgg, p.alpha, p.capacity, p.eps, p.decay, p.maxCentroids)
    })
    val sample = df.sample(withReplacement = false, p.alpha, p.seed)
      .withColumn("paa", Paa.paaUdf(p.paaW)(col("series"))).cache()
    sample.count()
    val selectNs = tracer.span("pivots.select", parent)(_ => medianNs(reps) {
      Pivots.select(sample, "paa", p.numPivots, p.prefixLen, p.seed)
    })
    sample.unpersist()
    val m = math.max(1, ids.length)
    Result(ids.length, paaNs / m / 1e3, dualNs / m / 1e3, assignNs / m / 1e3, centroidsNs / 1e6,
      skeletonNs / 1e6, selectNs / 1e9)
  }
}
