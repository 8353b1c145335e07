package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{ClimberIndex, ClimberQuery}
import repro.memory.{OdysseySim, ParlayAnnSim}

/** Table I — CLIMBER vs the in-memory systems Odyssey and ParlayANN-HNSW:
  * Index Construction Time (I.C.T), Query Response Time (Q.R.T), and
  * Results' Recall (R.R) over growing RandomWalk datasets. "X" marks a
  * system whose memory budget the dataset exceeds (see DESIGN.md §2 for the
  * budget model and the GB→series scale mapping).
  */
object TableOne {

  final case class Row(sizeGb: Int, system: String, ictSec: Double, qrtSec: Double,
                       recall: Double, status: String) {
    def cells: Seq[String] =
      if (status == "X") Seq(sizeGb.toString, system, "X", "X", "X")
      else Seq(sizeGb.toString, system, f"$ictSec%.1f", f"$qrtSec%.2f", f"$recall%.2f")
  }

  /** Paper sizes 200 GB–1.5 TB (50k–375k series, DESIGN.md §2). */
  val SizesGb: Seq[Int] = Seq(200, 400, 600, 800, 1000, 1500)
  /** The in-memory systems' budgets: the paper shows Odyssey as X from
    * 1000 GB on and ParlayANN from 600 GB on.
    */
  val OdysseyBudgetGb: Int = 800
  val ParlayBudgetGb: Int = 400

  def run(spark: SparkSession, sizesGb: Seq[Int] = SizesGb): Seq[Row] =
    sizesGb.flatMap(gb => Workloads.withDataset(spark, "RandomWalk", gb, Workloads.K) { w =>
      val k = Workloads.K
      val p = Workloads.benchParams
      val odysseyBudget = OdysseyBudgetGb.toLong * Workloads.SeriesPerGb
      val score = Workloads.measure(w.queries, w.truth) _

      // One untimed CLIMBER and Odyssey build on the first size's data, so
      // that no timed row is the JVM's first build of either system.
      if (gb == sizesGb.head) {
        ClimberIndex.build(spark, w.df, p).data.unpersist()
        OdysseySim.build(w.df, w.n, odysseyBudget, p.paaW)
      }

      // CLIMBER (default variation Adaptive-4X, §VII-A).
      val (index, ict) = Workloads.timed(ClimberIndex.build(spark, w.df, p))
      val cl = score(Workloads.climberRun(index, k, ClimberQuery.Adaptive(4)))
      index.data.unpersist()

      // An in-memory system: "X" when its build refuses the dataset for its
      // memory budget, else timed build + queries. Table I reports no rows
      // scanned, so these runs count none.
      def inMemory(system: String)(build: => Either[String, Workloads.Run]): Row =
        Workloads.timed(build) match {
          case (Left(_), _) => Row(gb, system, 0, 0, 0, "X")
          case (Right(run), ictS) =>
            val m = score(run)
            Row(gb, system, ictS, m.qrtSec, m.recall, "ok")
        }

      Seq(
        Row(gb, "CLIMBER", ict, cl.qrtSec, cl.recall, "ok"),
        // Odyssey: exact, in-memory, fails beyond the cluster RAM budget.
        inMemory("Odyssey") {
          OdysseySim.build(w.df, w.n, odysseyBudget, p.paaW)
            .map[Workloads.Run](ody => (_, q) => (ody.knn(q, k).map(_._1), 0L))
        },
        // ParlayANN-HNSW: approximate, single-node, costly construction.
        inMemory("ParlayANN") {
          ParlayAnnSim.build(w.df, w.n, ParlayBudgetGb.toLong * Workloads.SeriesPerGb)
            .map[Workloads.Run](pa => (_, q) => (pa.knn(q, k).map(_._1), 0L))
        })
    })

  def render(rows: Seq[Row]): String =
    Workloads.table(Seq("Size(GB)", "System", "I.C.T(s)", "Q.R.T(s)", "R.R"), rows.map(_.cells))
}
