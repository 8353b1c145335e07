package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{ClimberIndex, ClimberQuery}
import repro.isax.{DpiSax, Tardis}

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

  /** The paper's 400 GB scale (DESIGN.md §2). */
  val SizeGb: Int = 400
  val Ks: Seq[Int] = Seq(50, 100, 500, 1000, 2000)
  /** Dss is slow; time it on a subset of the queries. */
  val DssTimedQueries: Int = 3

  def run(spark: SparkSession): Seq[Row] =
    Workloads.withDataset(spark, "RandomWalk", SizeGb, Ks.max) { w =>
      val p = Workloads.benchParams
      val dpisax = DpiSax.index(spark, w.df, p.capacity, alpha = p.alpha)
      val tardis = Tardis.index(spark, w.df, p.capacity, alpha = p.alpha)
      val climber = ClimberIndex.build(spark, w.df, p)

      val variants = Seq(
        "Dss" -> (Workloads.dssRun(w.df, w.n, _: Int)),
        "DPiSAX" -> (Workloads.baselineRun(dpisax, _: Int)),
        "TARDIS" -> (Workloads.baselineRun(tardis, _: Int)),
      ) ++ Seq(ClimberQuery.Knn, ClimberQuery.Adaptive(2), ClimberQuery.Adaptive(4)).map(v =>
        v.label -> (Workloads.climberRun(climber, _: Int, v)))

      val rows = for (k <- Ks; (name, run) <- variants) yield {
        val timedQs = if (name == "Dss") w.queries.take(DssTimedQueries) else w.queries
        val m = Workloads.measure(timedQs,
          w.truth.map { case (qid, ids) => qid -> ids.take(k) })(run(k))
        Row(k, name, m.qrtSec, m.recall, m.rowsScanned)
      }
      dpisax.data.unpersist(); tardis.data.unpersist(); climber.data.unpersist()
      rows
    }

  def render(rows: Seq[Row]): String =
    Workloads.table(Seq("K", "System", "Q.R.T(s)", "Recall", "RowsScanned"), rows.map(_.cells))
}
