package repro

import org.apache.spark.sql.functions.{col, udf}

import repro.core.{ClimberIndex, ClimberQuery}
import repro.exp.Workloads
import repro.isax.{DpiSax, Tardis}
import repro.scan.Dss
import repro.series.SeriesGen

/** Recall floors of every CLIMBER variant and the paper's recall orderings
  * (Fig. 9 and Fig. 11(b)), at a tenth of the benchmark's scale: 5000 series
  * of RandomWalk and of EEG, the benchmark's r = 200 and m = 10 with the
  * capacity scaled from 2000 to 200, and K = c = 200, where the best group
  * of some EEG queries holds fewer than K records. On RandomWalk, DPiSAX and
  * TARDIS are scored too, at the same capacity and the benchmark's α.
  */
class RecallSpec extends SparkSpec {

  private val n = 5000L
  private val k = 200
  private val params = Workloads.benchParams.copy(capacity = 200)
  private val variants = Seq[ClimberQuery.Variant](ClimberQuery.Knn, ClimberQuery.Adaptive(2),
    ClimberQuery.Adaptive(4), ClimberQuery.OdSmallest)

  /** Mean recall over 40 queries drawn from the dataset, by system label:
    * each CLIMBER variant and, with `baselines`, DPiSAX and TARDIS. The rows
    * come in a fixed four input partitions, because the skeleton's sample
    * depends on the input partitioning.
    */
  private def recalls(dataset: String, baselines: Boolean): Map[String, Double] = {
    val df = spark.range(0, n, 1, 4).select(col("id"),
      udf((id: Long) => SeriesGen.local(dataset, id, Workloads.DataSeed)).apply(col("id")).as("series"))
      .cache()
    try {
      val queries = Workloads.queries(dataset, n, 40, seed = 5)
      val score = Workloads.measure(queries, Dss.knnBatch(spark, df, queries, k)) _
      val index = ClimberIndex.build(spark, df, params)
      val climber = variants.map(v => v.label -> score(Workloads.climberRun(index, k, v)).recall)
      index.data.unpersist()
      val isax = if (!baselines) Nil else Seq(
          DpiSax.index(spark, df, params.capacity, alpha = params.alpha),
          Tardis.index(spark, df, params.capacity, alpha = params.alpha)).map { bi =>
        try bi.name -> score(Workloads.baselineRun(bi, k)).recall finally bi.data.unpersist()
      }
      (climber ++ isax).toMap
    } finally df.unpersist()
  }

  private lazy val randomWalk = recalls("RandomWalk", baselines = true)
  private lazy val eeg = recalls("EEG", baselines = false)

  private def assertFloors(got: Map[String, Double], floors: Seq[Double]): Unit =
    for ((v, floor) <- variants.map(_.label).zip(floors))
      assert(got(v) >= floor, f"$v recall ${got(v)}%.4f below $floor")

  /** OD-Smallest ≥ Adaptive-4X ≥ Adaptive-2X ≥ CLIMBER-kNN. */
  private def assertOrdered(got: Map[String, Double]): Unit = {
    val rs = variants.reverse.map(v => got(v.label))
    assert(rs == rs.sorted.reverse, variants.map(v => f"${v.label} ${got(v.label)}%.4f").mkString(", "))
  }

  test("RandomWalk: every variant's recall stays above its floor") {
    assertFloors(randomWalk, Seq(0.24, 0.27, 0.39, 0.52))
  }

  test("EEG: every variant's recall stays above its floor") {
    assertFloors(eeg, Seq(0.17, 0.22, 0.22, 0.32))
  }

  test("RandomWalk: OD-Smallest ≥ Adaptive-4X ≥ Adaptive-2X ≥ CLIMBER-kNN") {
    assertOrdered(randomWalk)
  }

  test("EEG: OD-Smallest ≥ Adaptive-4X ≥ Adaptive-2X ≥ CLIMBER-kNN") {
    assertOrdered(eeg)
  }

  test("RandomWalk: CLIMBER-kNN-Adaptive-4X > TARDIS > DPiSAX (Fig. 7, Fig. 9)") {
    val rs = Seq("CLIMBER-kNN-Adaptive-4X", "TARDIS", "DPiSAX").map(s => s -> randomWalk(s))
    assert(rs.zip(rs.tail).forall { case ((_, a), (_, b)) => a > b },
      rs.map { case (s, r) => f"$s $r%.4f" }.mkString(", "))
  }
}
