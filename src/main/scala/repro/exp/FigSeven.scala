package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{ClimberIndex, ClimberParams, ClimberQuery}
import repro.isax.{DpiSax, Tardis}
import repro.scan.Dss

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

  final case class Config(
      datasets: Seq[String] = repro.series.SeriesGen.Datasets,
      sizeGb: Int = 200,
      k: Int = 500,
      nQueries: Int = 20,
      nDssTimedQueries: Int = 5, // Dss is slow; time it on a subset
      climber: ClimberParams = Workloads.benchParams,
  )

  def run(spark: SparkSession, cfg: Config = Config()): Seq[Row] = {
    val rows = scala.collection.mutable.ArrayBuffer[Row]()
    val n = cfg.sizeGb.toLong * Workloads.SeriesPerGb
    for (ds <- cfg.datasets) {
      val df = Workloads.dataset(spark, ds, n)
      val qs = Workloads.queries(ds, n, cfg.nQueries)
      val truth = Dss.knnBatch(spark, df, qs, cfg.k)

      // Dss: exact by construction; time a subset of single-query scans.
      val dss = Workloads.measure(qs.take(cfg.nDssTimedQueries), truth)((_, q) =>
        (Dss.knn(df, q, cfg.k).map(_._1), n))
      rows += Row(ds, "Dss", dss.qrtSec, dss.recall, dss.rowsScanned, Double.NaN, Double.NaN)

      // DPiSAX and TARDIS: one-partition approximate search.
      for ((name, bi) <- Seq(
          "DPiSAX" -> DpiSax.index(spark, df, cfg.climber.capacity, alpha = cfg.climber.alpha),
          "TARDIS" -> Tardis.index(spark, df, cfg.climber.capacity, alpha = cfg.climber.alpha))) {
        val m = Workloads.measure(qs, truth)(
          Workloads.baselineRun(bi, Workloads.partSizes(bi.data), cfg.k))
        rows += Row(ds, name, m.qrtSec, m.recall, m.rowsScanned, bi.buildSec,
          bi.indexBytes / 1024.0)
        bi.data.unpersist()
      }

      // CLIMBER default variation (Adaptive-4X).
      val (index, ict) = Workloads.timed(ClimberIndex.build(spark, df, cfg.climber))
      val m = Workloads.measure(qs, truth)(Workloads.climberRun(index,
        Workloads.partSizes(index.data), cfg.k, ClimberQuery.Adaptive(4)))
      rows += Row(ds, "CLIMBER", m.qrtSec, m.recall, m.rowsScanned, ict,
        index.stats.skeletonBytes / 1024.0)
      index.data.unpersist()
      df.unpersist()
    }
    rows.toSeq
  }

  def render(rows: Seq[Row]): String =
    Workloads.table(
      Seq("Dataset", "System", "Q.R.T(s)", "Recall", "RowsScanned", "I.C.T(s)", "Index(KB)"),
      rows.map(_.cells))
}
