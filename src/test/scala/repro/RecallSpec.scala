package repro

import org.apache.spark.sql.functions.{col, udf}

import repro.core.{ClimberIndex, ClimberQuery}
import repro.exp.Workloads
import repro.scan.Dss
import repro.series.SeriesGen

/** Recall floors of every CLIMBER variant and the paper's recall ordering
  * (Fig. 9 and Fig. 11(b)), at a tenth of the benchmark's scale: 5000 series
  * of RandomWalk and of EEG, the benchmark's r = 200 and m = 10 with the
  * capacity scaled from 2000 to 200, and K = c = 200, where the best group
  * of some EEG queries holds fewer than K records.
  */
class RecallSpec extends SparkSpec {

  private val n = 5000L
  private val k = 200
  private val variants = Seq[ClimberQuery.Variant](ClimberQuery.Knn, ClimberQuery.Adaptive(2),
    ClimberQuery.Adaptive(4), ClimberQuery.OdSmallest)

  /** Mean recall of each variant over 40 queries drawn from the dataset. The
    * rows come in a fixed four input partitions, because the skeleton's
    * sample depends on the input partitioning.
    */
  private def recalls(dataset: String): Map[ClimberQuery.Variant, Double] = {
    val df = spark.range(0, n, 1, 4).select(col("id"),
      udf((id: Long) => SeriesGen.local(dataset, id, Workloads.DataSeed)).apply(col("id")).as("series"))
      .cache()
    try {
      val index = ClimberIndex.build(spark, df, Workloads.benchParams.copy(capacity = 200))
      val queries = Workloads.queries(dataset, n, 40, seed = 5)
      val truth = Dss.knnBatch(spark, df, queries, k)
      val sizes = Workloads.partSizes(index.data)
      val got = variants.map(v =>
        v -> Workloads.measure(queries, truth)(Workloads.climberRun(index, sizes, k, v)).recall).toMap
      index.data.unpersist()
      got
    } finally df.unpersist()
  }

  private lazy val randomWalk = recalls("RandomWalk")
  private lazy val eeg = recalls("EEG")

  private def assertFloors(got: Map[ClimberQuery.Variant, Double], floors: Seq[Double]): Unit =
    for ((v, floor) <- variants.zip(floors))
      assert(got(v) >= floor, f"${v.label} recall ${got(v)}%.4f below $floor")

  /** OD-Smallest ≥ Adaptive-4X ≥ Adaptive-2X ≥ CLIMBER-kNN. */
  private def assertOrdered(got: Map[ClimberQuery.Variant, Double]): Unit = {
    val rs = variants.reverse.map(got)
    assert(rs == rs.sorted.reverse, variants.map(v => f"${v.label} ${got(v)}%.4f").mkString(", "))
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
}
