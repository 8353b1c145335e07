package repro.bench

import repro.SparkSpec
import repro.exp.FigSeven
import repro.series.SeriesGen

/** Reproduces **Figures 7(a,b) + 8(a,b)** as a table: per-dataset query
  * time, recall, index construction time, and global index size for Dss,
  * DPiSAX, TARDIS, and CLIMBER at the 200 GB-equivalent scale. These carry
  * the paper's headline claim (CLIMBER ~0.75–0.80 recall vs ≤0.40/≤0.10 for
  * the iSAX baselines at comparable query time).
  */
class FigSevenBench extends SparkSpec {

  private lazy val rows = FigSeven.run(spark)
  private val datasets = SeriesGen.Datasets
  private def row(ds: String, sys: String) =
    rows.find(r => r.dataset == ds && r.system == sys).get

  test("Figure 7+8: run and print the dataset comparison") {
    println("===== Figure 7(a,b) + 8(a,b): per-dataset comparison =====")
    println(FigSeven.render(rows))
    assert(rows.size == datasets.size * 4)
  }

  test("Fig 7 shape: Dss is exact but scans the whole dataset") {
    // The paper's Dss bar is minutes vs seconds because it touches every
    // partition; at bench scale per-job overhead masks wall clock, so the
    // scan volume carries the shape.
    for (ds <- datasets) {
      val dss = row(ds, "Dss")
      assert(dss.recall == 1.0)
      for (sys <- Seq("DPiSAX", "TARDIS", "CLIMBER"))
        assert(row(ds, sys).rowsScanned <= 0.25 * dss.rowsScanned,
          s"$ds/$sys scans ${row(ds, sys).rowsScanned}")
    }
  }

  test("Fig 7 shape: CLIMBER recall beats DPiSAX on every dataset") {
    for (ds <- datasets)
      assert(row(ds, "CLIMBER").recall > row(ds, "DPiSAX").recall,
        f"$ds: ${row(ds, "CLIMBER").recall}%.2f vs ${row(ds, "DPiSAX").recall}%.2f")
  }

  test("Fig 7 shape: CLIMBER recall is at least TARDIS-competitive on every dataset") {
    for (ds <- datasets)
      assert(row(ds, "CLIMBER").recall >= row(ds, "TARDIS").recall - 0.05, ds)
  }

  test("Fig 7 shape: CLIMBER recall is substantial on every dataset") {
    for (ds <- datasets)
      assert(row(ds, "CLIMBER").recall >= 0.25, f"$ds: ${row(ds, "CLIMBER").recall}%.2f")
  }

  test("Fig 7 shape: approximate query times are in the same ballpark") {
    for (ds <- datasets) {
      val ts = Seq("DPiSAX", "TARDIS", "CLIMBER").map(row(ds, _).qrtSec)
      assert(ts.max <= 12 * math.max(0.02, ts.min), s"$ds: $ts")
    }
  }

  test("Fig 8 shape: all global indexes are tiny") {
    for (ds <- datasets; sys <- Seq("DPiSAX", "TARDIS", "CLIMBER"))
      assert(row(ds, sys).indexKb < 5 * 1024, s"$ds/$sys: ${row(ds, sys).indexKb} KB")
  }

  test("Fig 8 shape: index construction completes for every indexed system") {
    for (ds <- datasets; sys <- Seq("DPiSAX", "TARDIS", "CLIMBER"))
      assert(row(ds, sys).ictSec > 0, s"$ds/$sys")
  }
}
