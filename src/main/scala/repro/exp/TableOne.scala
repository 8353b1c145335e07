package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{ClimberIndex, ClimberParams, ClimberQuery}
import repro.memory.{OdysseySim, ParlayAnnSim}
import repro.scan.Dss

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

  final case class Config(
      sizesGb: Seq[Int] = Seq(200, 400, 600, 800, 1000, 1500),
      k: Int = 500,
      nQueries: Int = 20,
      odysseyBudgetGb: Int = 800, // paper: X from 1000 GB on
      parlayBudgetGb: Int = 400, // paper: X from 600 GB on
      climber: ClimberParams = Workloads.benchParams,
  )

  def run(spark: SparkSession, cfg: Config = Config()): Seq[Row] = {
    val rows = scala.collection.mutable.ArrayBuffer[Row]()
    for (gb <- cfg.sizesGb) {
      val n = gb.toLong * Workloads.SeriesPerGb
      val df = Workloads.dataset(spark, "RandomWalk", n)
      val qs = Workloads.queries("RandomWalk", n, cfg.nQueries)
      val score = Workloads.measure(qs, Dss.knnBatch(spark, df, qs, cfg.k)) _

      // CLIMBER (default variation Adaptive-4X, §VII-A).
      val (index, ict) = Workloads.timed(ClimberIndex.build(spark, df, cfg.climber))
      val cl = score(Workloads.climberRun(index, Workloads.partSizes(index.data), cfg.k,
        ClimberQuery.Adaptive(4)))
      rows += Row(gb, "CLIMBER", ict, cl.qrtSec, cl.recall, "ok")
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

      // Odyssey: exact, in-memory, fails beyond the cluster RAM budget.
      rows += inMemory("Odyssey") {
        OdysseySim.build(df, n, cfg.odysseyBudgetGb.toLong * Workloads.SeriesPerGb,
          cfg.climber.paaW)
          .map[Workloads.Run](ody => (_, q) => (ody.knn(q, cfg.k).map(_._1), 0L))
      }

      // ParlayANN-HNSW: approximate, single-node, costly construction.
      rows += inMemory("ParlayANN") {
        ParlayAnnSim.build(df, n, cfg.parlayBudgetGb.toLong * Workloads.SeriesPerGb)
          .map[Workloads.Run](pa => (_, q) => (pa.knn(q, cfg.k).map(_._1), 0L))
      }
      df.unpersist()
    }
    rows.toSeq
  }

  def render(rows: Seq[Row]): String =
    Workloads.table(Seq("Size(GB)", "System", "I.C.T(s)", "Q.R.T(s)", "R.R"), rows.map(_.cells))
}
