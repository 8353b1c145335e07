package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{ClimberIndex, ClimberQuery}

/** The CLIMBER ablations rendered as tables:
  *   - Figure 11(b): the OD-Smallest search (all partitions of every
  *     smallest-OD group) vs the three CLIMBER variations — relative data
  *     accessed and relative recall.
  *   - Figure 12: the prefix-length sweep — index construction time, global
  *     index size, query time, and recall, absolute and relative to the
  *     bench default prefix length (Workloads.benchParams).
  */
object Ablation {

  final case class OdRow(system: String, rowsAccessed: Double, recall: Double,
                         relData: Double, relRecall: Double) {
    def cells: Seq[String] = Seq(system, f"$rowsAccessed%.0f", f"$recall%.2f",
      f"$relData%.2fx", f"$relRecall%.2fx")
  }

  final case class PrefixRow(m: Int, ictSec: Double, indexKb: Double, qrtSec: Double,
                             recall: Double) {
    def cells(base: PrefixRow): Seq[String] = Seq(m.toString,
      f"$ictSec%.1f (${ictSec / base.ictSec}%.2fx)",
      f"$indexKb%.1f (${indexKb / base.indexKb}%.2fx)",
      f"$qrtSec%.2f (${qrtSec / base.qrtSec}%.2fx)",
      f"$recall%.2f (${recall / base.recall}%.2fx)")
  }

  /** The paper's 200 GB scale (DESIGN.md §2). */
  val SizeGb: Int = 200
  val PrefixLens: Seq[Int] = Seq(4, 6, 10, 15, 20)

  /** Figure 11(b): OD-Smallest vs CLIMBER-kNN / Adaptive-2X / Adaptive-4X. */
  def runOdSmallest(spark: SparkSession): Seq[OdRow] =
    Workloads.withDataset(spark, "RandomWalk", SizeGb, Workloads.K) { w =>
      val index = ClimberIndex.build(spark, w.df, Workloads.benchParams)

      val variants = Seq(ClimberQuery.Knn, ClimberQuery.Adaptive(2), ClimberQuery.Adaptive(4),
        ClimberQuery.OdSmallest)
      val measured = variants.map(v => v.label -> Workloads.measure(w.queries, w.truth)(
        Workloads.climberRun(index, Workloads.K, v)))
      val od = measured.last._2
      val rows = measured.map { case (name, m) =>
        OdRow(name, m.rowsScanned, m.recall, od.rowsScanned / m.rowsScanned, od.recall / m.recall)
      }
      index.data.unpersist()
      rows
    }

  /** Figure 12: prefix-length sweep. */
  def runPrefix(spark: SparkSession): Seq[PrefixRow] =
    Workloads.withDataset(spark, "RandomWalk", SizeGb, Workloads.K) { w =>
      PrefixLens.map { m =>
        val params = Workloads.benchParams.copy(prefixLen = m)
        val (index, ict) = Workloads.timed(ClimberIndex.build(spark, w.df, params))
        val q = Workloads.measure(w.queries, w.truth)(
          Workloads.climberRun(index, Workloads.K, ClimberQuery.Adaptive(4)))
        val row = PrefixRow(m, ict, index.stats.skeletonBytes / 1024.0, q.qrtSec, q.recall)
        index.data.unpersist()
        row
      }
    }

  def renderOd(rows: Seq[OdRow]): String =
    Workloads.table(Seq("System", "RowsAccessed", "Recall", "OD/this(data)", "OD/this(recall)"),
      rows.map(_.cells))

  def renderPrefix(rows: Seq[PrefixRow]): String = {
    val base = rows.find(_.m == Workloads.benchParams.prefixLen).getOrElse(rows.head)
    Workloads.table(Seq("PrefixLen", "I.C.T(s)", "Index(KB)", "Q.R.T(s)", "Recall"),
      rows.map(_.cells(base)))
  }
}
