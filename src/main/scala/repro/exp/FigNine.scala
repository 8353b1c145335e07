package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{ClimberIndex, ClimberParams, ClimberQuery}
import repro.isax.{DpiSax, Tardis}
import repro.scan.Dss

/** Figure 9 — the K sweep on RandomWalk 400 GB: (a) recall and (b) the
  * query-time table, for Dss, TARDIS, DPiSAX and the three CLIMBER
  * variations. Ground truth is computed once at the maximum K and sliced
  * (the exact top-k for k' < k is the prefix of the exact top-k ranking).
  *
  * Besides wall-clock time we report the mean number of rows scanned per
  * query — §VII-B: query time "incorporates as a dominant factor the number
  * of partitions touched", and at bench scale the per-job overhead would
  * otherwise mask that factor.
  */
object FigNine {

  final case class Row(k: Int, system: String, qrtSec: Double, recall: Double,
                       rowsScanned: Double) {
    def cells: Seq[String] =
      Seq(k.toString, system, f"$qrtSec%.2f", f"$recall%.2f", f"$rowsScanned%.0f")
  }

  final case class Config(
      sizeGb: Int = 400,
      ks: Seq[Int] = Seq(50, 100, 500, 1000, 2000),
      nQueries: Int = 20,
      nDssTimedQueries: Int = 3,
      climber: ClimberParams = Workloads.benchParams,
  )

  def run(spark: SparkSession, cfg: Config = Config()): Seq[Row] = {
    val rows = scala.collection.mutable.ArrayBuffer[Row]()
    val n = cfg.sizeGb.toLong * Workloads.SeriesPerGb
    val maxK = cfg.ks.max
    val df = Workloads.dataset(spark, "RandomWalk", n)
    val qs = Workloads.queries("RandomWalk", n, cfg.nQueries)
    val truthMax = Dss.knnBatch(spark, df, qs, maxK)

    val dpisax = DpiSax.index(spark, df, cfg.climber.capacity, alpha = cfg.climber.alpha)
    val tardis = Tardis.index(spark, df, cfg.climber.capacity, alpha = cfg.climber.alpha)
    val climber = ClimberIndex.build(spark, df, cfg.climber)

    val dpSizes = Workloads.partSizes(dpisax.data)
    val tdSizes = Workloads.partSizes(tardis.data)
    val clSizes = Workloads.partSizes(climber.data)

    val dss: Int => Workloads.Run = k => (_, q) => (Dss.knn(df, q, k).map(_._1), n)
    val variants = Seq(
      "Dss" -> dss,
      "DPiSAX" -> (Workloads.baselineRun(dpisax, dpSizes, _: Int)),
      "TARDIS" -> (Workloads.baselineRun(tardis, tdSizes, _: Int)),
    ) ++ Seq(ClimberQuery.Knn, ClimberQuery.Adaptive(2), ClimberQuery.Adaptive(4)).map(v =>
      v.label -> (Workloads.climberRun(climber, clSizes, _: Int, v)))

    for (k <- cfg.ks; (name, run) <- variants) {
      val timedQs = if (name == "Dss") qs.take(cfg.nDssTimedQueries) else qs
      val m = Workloads.measure(timedQs,
        truthMax.map { case (qid, ids) => qid -> ids.take(k) })(run(k))
      rows += Row(k, name, m.qrtSec, m.recall, m.rowsScanned)
    }
    dpisax.data.unpersist(); tardis.data.unpersist(); climber.data.unpersist(); df.unpersist()
    rows.toSeq
  }

  def render(rows: Seq[Row]): String =
    Workloads.table(Seq("K", "System", "Q.R.T(s)", "Recall", "RowsScanned"), rows.map(_.cells))
}
