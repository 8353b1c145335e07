package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{ClimberIndex, ClimberQuery}
import repro.isax.{DpiSax, Tardis}
import repro.series.SeriesGen

/** Figures 7(a,b) and 8(a,b) rendered as a table: for each dataset at the
  * 200 GB-equivalent scale, the query time, recall, and mean rows scanned
  * per query of Dss / DPiSAX / TARDIS / CLIMBER (7), plus index
  * construction time and global index size (8; Dss builds no index). Rows
  * scanned is reported because §VII-B attributes query time primarily to
  * the partitions touched, and per-job overhead masks that at bench scale.
  */
object FigSeven {

  final case class Row(dataset: String, system: String, qrtSec: Double, recall: Double,
                       rowsScanned: Double, ictSec: Double, indexKb: Double) {
    def cells: Seq[String] = Seq(dataset, system, f"$qrtSec%.2f", f"$recall%.2f",
      f"$rowsScanned%.0f",
      if (ictSec.isNaN) "-" else f"$ictSec%.1f",
      if (indexKb.isNaN) "-" else f"$indexKb%.1f")
  }

  /** The paper's 200 GB scale (DESIGN.md §2). */
  val SizeGb: Int = 200
  /** Dss is slow; time it on a subset of the queries. */
  val DssTimedQueries: Int = 5

  def run(spark: SparkSession): Seq[Row] =
    SeriesGen.Datasets.flatMap(ds => Workloads.withDataset(spark, ds, SizeGb, Workloads.K) { w =>
      val k = Workloads.K
      val p = Workloads.benchParams
      val dss = Workloads.measure(w.queries.take(DssTimedQueries), w.truth)(
        Workloads.dssRun(w.df, w.n, k))
      val dssRow = Row(ds, "Dss", dss.qrtSec, dss.recall, dss.rowsScanned, Double.NaN, Double.NaN)

      // DPiSAX and TARDIS: one-partition approximate search.
      val baselineRows = Seq(
          "DPiSAX" -> DpiSax.index(spark, w.df, p.capacity, alpha = p.alpha),
          "TARDIS" -> Tardis.index(spark, w.df, p.capacity, alpha = p.alpha)).map { case (name, bi) =>
        val m = Workloads.measure(w.queries, w.truth)(Workloads.baselineRun(bi, k))
        bi.data.unpersist()
        Row(ds, name, m.qrtSec, m.recall, m.rowsScanned, bi.buildSec, bi.indexBytes / 1024.0)
      }

      // CLIMBER default variation (Adaptive-4X).
      val (index, ict) = Workloads.timed(ClimberIndex.build(spark, w.df, p))
      val m = Workloads.measure(w.queries, w.truth)(
        Workloads.climberRun(index, k, ClimberQuery.Adaptive(4)))
      index.data.unpersist()
      dssRow +: baselineRows :+
        Row(ds, "CLIMBER", m.qrtSec, m.recall, m.rowsScanned, ict, index.stats.skeletonBytes / 1024.0)
    })

  def render(rows: Seq[Row]): String =
    Workloads.table(
      Seq("Dataset", "System", "Q.R.T(s)", "Recall", "RowsScanned", "I.C.T(s)", "Index(KB)"),
      rows.map(_.cells))
}
