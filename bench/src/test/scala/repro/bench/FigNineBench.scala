package repro.bench

import repro.SparkSpec
import repro.exp.FigNine

/** Reproduces the **Figure 9(b) table** (query execution time under varying
  * K) together with Figure 9(a) (recall under varying K) on RandomWalk at
  * the 400 GB-equivalent scale. Paper-vs-measured numbers live in
  * EXPERIMENTS.md.
  */
class FigNineBench extends SparkSpec {

  private lazy val rows = FigNine.run(spark)
  private def recallOf(sys: String, k: Int): Double =
    rows.find(r => r.system == sys && r.k == k).get.recall

  test("Figure 9: run and print the K sweep") {
    println("===== Figure 9(a)+(b): recall and query time under varying K =====")
    println(FigNine.render(rows))
    assert(rows.nonEmpty)
  }

  test("Fig 9 shape: Dss is exact at every K") {
    rows.filter(_.system == "Dss").foreach(r => assert(r.recall == 1.0))
  }

  test("Fig 9 shape: CLIMBER variants beat DPiSAX at every K") {
    for (k <- FigNine.Ks)
      assert(recallOf("CLIMBER-kNN-Adaptive-4X", k) > recallOf("DPiSAX", k), s"K=$k")
  }

  test("Fig 9 shape: CLIMBER-Adaptive-4X is the best approximate variant overall") {
    val ks = FigNine.Ks
    val mean4x = ks.map(recallOf("CLIMBER-kNN-Adaptive-4X", _)).sum / ks.size
    for (sys <- Seq("DPiSAX", "TARDIS", "CLIMBER-kNN"))
      assert(mean4x >= ks.map(recallOf(sys, _)).sum / ks.size - 1e-9, sys)
  }

  test("Fig 9 shape: adaptive variants match CLIMBER-kNN at small K") {
    // §VII-B: for small K the node covers K, so all variations coincide.
    for (k <- Seq(50, 100)) {
      val base = recallOf("CLIMBER-kNN", k)
      assert(math.abs(recallOf("CLIMBER-kNN-Adaptive-2X", k) - base) < 0.05, s"K=$k 2X")
      assert(math.abs(recallOf("CLIMBER-kNN-Adaptive-4X", k) - base) < 0.05, s"K=$k 4X")
    }
  }

  test("Fig 9 shape: adaptive variants win at large K") {
    val k = FigNine.Ks.max
    assert(recallOf("CLIMBER-kNN-Adaptive-4X", k) >= recallOf("CLIMBER-kNN", k) - 1e-9)
    assert(recallOf("CLIMBER-kNN-Adaptive-4X", k) >= recallOf("CLIMBER-kNN-Adaptive-2X", k) - 0.05)
  }

  test("Fig 9(b) shape: Dss scans the whole dataset, approximate systems a small fraction") {
    // §VII-B: query time is dominated by the partitions touched; at bench
    // scale per-job overhead masks wall-clock contrasts, so the scan volume
    // carries the shape (Dss at 100k rows vs ~1 capacity-sized partition).
    for (k <- FigNine.Ks) {
      val dss = rows.find(r => r.system == "Dss" && r.k == k).get.rowsScanned
      for (sys <- Seq("DPiSAX", "TARDIS", "CLIMBER-kNN", "CLIMBER-kNN-Adaptive-4X")) {
        val r = rows.find(r => r.system == sys && r.k == k).get
        assert(r.rowsScanned <= 0.25 * dss, s"K=$k $sys scans ${r.rowsScanned} of $dss")
      }
    }
  }

  test("Fig 9(b) shape: Dss wall clock is never much faster than the approximate systems") {
    for (k <- FigNine.Ks) {
      val dss = rows.find(r => r.system == "Dss" && r.k == k).get.qrtSec
      for (sys <- Seq("DPiSAX", "TARDIS", "CLIMBER-kNN"))
        assert(dss >= 0.5 * rows.find(r => r.system == sys && r.k == k).get.qrtSec, s"K=$k $sys")
    }
  }

  test("Fig 9(b) shape: approximate systems are in the same ballpark") {
    for (k <- FigNine.Ks) {
      val ts = Seq("DPiSAX", "TARDIS", "CLIMBER-kNN", "CLIMBER-kNN-Adaptive-4X")
        .map(sys => rows.find(r => r.system == sys && r.k == k).get.qrtSec)
      assert(ts.max <= 12 * math.max(0.02, ts.min), s"K=$k: $ts")
    }
  }
}
