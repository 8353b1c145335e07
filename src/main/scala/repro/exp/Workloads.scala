package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ClimberIndex, ClimberQuery}
import repro.isax.{BaselineCommon, BaselineIndex}
import repro.scan.Dss
import repro.series.SeriesGen

/** Shared workload plumbing for the benches/jobs: the one dataset harness
  * (dataset materialisation, query sampling — queries are drawn from the
  * dataset itself, §VII-A — and Dss ground truth), recall (Def. 4), and the
  * one measurement loop of every runner.
  */
object Workloads {

  /** Scale mapping documented in DESIGN.md §2: 1 paper-"GB" ≡ 250 series. */
  val SeriesPerGb: Int = 250

  /** Bench-scale CLIMBER parameters: the paper's defaults (r = 200 pivots,
    * prefix m = 10, §VII-A), with the capacity c = 2000 records standing in
    * for a fixed 128 MB HDFS partition (DESIGN.md §6). At this scale, a
    * sweep of (r, m) ∈ {(64, 8), (128, 10), (200, 10), (256, 12)} over all
    * four datasets (50k series, K = 500, Adaptive-4X recall) found
    * r = 200/m = 10 to dominate or tie the smaller settings.
    */
  val benchParams: repro.core.ClimberParams =
    repro.core.ClimberParams(numPivots = 200, prefixLen = 10, capacity = 2000)

  val DataSeed = 42L

  /** Queries per experiment (paper: 50; fewer keep the benches' wall clock
    * down, EXPERIMENTS.md) and the paper's default K (§VII-A).
    */
  val NumQueries: Int = 20
  val K: Int = 500

  /** One materialised dataset: its `n` cached series, the [[NumQueries]]
    * queries drawn from it, and their exact top-k ids (closest first).
    */
  final case class Workload(n: Long, df: DataFrame, queries: Seq[(Long, Array[Double])],
                            truth: Map[Long, Seq[Long]])

  /** The dataset harness of every runner: materialise `sizeGb` paper-GB of
    * the named dataset, draw its queries, compute their exact top-`k` with
    * Dss (before `body` builds any index), run `body`, and unpersist the
    * series afterwards, also when `body` throws.
    */
  def withDataset[T](spark: SparkSession, name: String, sizeGb: Int, k: Int)
                    (body: Workload => T): T = {
    val n = sizeGb.toLong * SeriesPerGb
    val df = dataset(spark, name, n)
    try {
      val qs = queries(name, n, NumQueries)
      body(Workload(n, df, qs, Dss.knnBatch(spark, df, qs, k)))
    } finally df.unpersist()
  }

  /** Cached DataFrame of `n` series of the named dataset, loaded by one
    * job over its cache's buffers.
    */
  def dataset(spark: SparkSession, name: String, n: Long): DataFrame = {
    val df = SeriesGen.generate(spark, name, n, DataSeed).cache()
    Dss.buffers(df).count()
    df
  }

  /** `q` query series drawn deterministically from the dataset's id space.
    * Because generation is deterministic in (id, seed), the query series
    * are regenerated locally — no Spark lookup needed — and are bitwise
    * equal to the stored rows.
    */
  def queries(name: String, n: Long, q: Int, seed: Long = 77): Seq[(Long, Array[Double])] = {
    val rng = new java.util.Random(seed)
    val ids = scala.collection.mutable.LinkedHashSet[Long]()
    while (ids.size < q) ids += math.floorMod(rng.nextLong(), n)
    ids.toSeq.map(id => (id, SeriesGen.local(name, id, DataSeed)))
  }

  /** Recall (Def. 4): |approx ∩ exact| / |exact|. */
  def recall(approx: Seq[Long], exact: Seq[Long]): Double =
    if (exact.isEmpty) 1.0
    else approx.toSet.intersect(exact.toSet).size.toDouble / exact.size

  /** Mean recall of a per-query result map against the ground truth. */
  def meanRecall(results: Map[Long, Seq[Long]], truth: Map[Long, Seq[Long]]): Double = {
    val rs = truth.keys.toSeq.map(qid => recall(results.getOrElse(qid, Seq.empty), truth(qid)))
    rs.sum / rs.size
  }

  /** One query of a system under test: (qid, query) → (result ids, rows scanned). */
  type Run = (Long, Array[Double]) => (Seq[Long], Long)

  /** CLIMBER under `variant`: plan, then ED-rank the planned partitions. */
  def climberRun(index: ClimberIndex, k: Int, variant: ClimberQuery.Variant): Run = { (qid, q) =>
    val plan = ClimberQuery.planFor(index, q, k, variant, qid)
    (ClimberQuery.scanTopK(index.data, "part", plan.partitions, q, k).map(_._1),
      plan.partitions.map(index.partRows(_)).sum)
  }

  /** Dss: exact by construction; every query scans all `n` rows of `df`. */
  def dssRun(df: DataFrame, n: Long, k: Int): Run = (_, q) => (Dss.knn(df, q, k).map(_._1), n)

  /** A one-partition iSAX baseline (DPiSAX, TARDIS). */
  def baselineRun(bi: BaselineIndex, k: Int): Run = { (_, q) =>
    val part = bi.router.route(BaselineCommon.wordOf(q))
    (BaselineCommon.knn(bi, q, k).map(_._1), bi.partRows(part))
  }

  /** Means of one system over a query set. */
  final case class Measured(qrtSec: Double, recall: Double, rowsScanned: Double)

  /** Time `run` on every query and score its results against `truth`. */
  def measure(queries: Seq[(Long, Array[Double])],
              truth: Map[Long, Seq[Long]])(run: Run): Measured = {
    val perQ = queries.map { case (qid, q) =>
      val ((ids, scanned), t) = timed(run(qid, q))
      (qid -> ids, t, scanned)
    }
    val results = perQ.map(_._1).toMap
    Measured(perQ.map(_._2).sum / perQ.size,
      meanRecall(results, truth.filter { case (qid, _) => results.contains(qid) }),
      perQ.map(_._3).sum.toDouble / perQ.size)
  }

  /** Wall-clock a thunk: (result, seconds). */
  def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Render rows as a fixed-width table (bench/job output). */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (fmt(header) +: widths.map("-" * _).mkString("  ") +: rows.map(fmt)).mkString("\n")
  }
}
