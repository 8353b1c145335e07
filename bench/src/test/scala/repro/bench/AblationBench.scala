package repro.bench

import repro.SparkSpec
import repro.exp.Ablation

/** Reproduces the ablation tables: **Figure 11(b)** (OD-Smallest vs the
  * CLIMBER variations — relative data accessed and recall) and
  * **Figure 12** (the prefix-length sweep).
  */
class AblationBench extends SparkSpec {

  private lazy val odRows = Ablation.runOdSmallest(spark)
  private lazy val prefixRows = Ablation.runPrefix(spark)

  test("Figure 11(b): run and print the OD-Smallest comparison") {
    println("===== Figure 11(b): OD-Smallest vs CLIMBER variations =====")
    println(Ablation.renderOd(odRows))
    assert(odRows.size == 4)
  }

  test("Fig 11(b) shape: OD-Smallest accesses clearly more data for little gain") {
    val od = odRows.find(_.system == "OD-Smallest").get
    val knn = odRows.find(_.system == "CLIMBER-kNN").get
    // Paper: 6x-7x more partitions than the default variation. At bench
    // scale the fine-grained OD (m = 10 over r = 200) rarely ties, so the
    // smallest-OD group set is smaller and the factor shrinks (~1.4x);
    // the direction — strictly more data for a modest recall gain — holds.
    assert(od.rowsAccessed >= 1.15 * knn.rowsAccessed,
      f"OD ${od.rowsAccessed}%.0f vs kNN ${knn.rowsAccessed}%.0f")
  }

  test("Fig 11(b) shape: OD-Smallest's recall gain over Adaptive-4X is modest") {
    val od = odRows.find(_.system == "OD-Smallest").get
    val a4 = odRows.find(_.system == "CLIMBER-kNN-Adaptive-4X").get
    // Paper: < 10% improvement despite scanning 6x-7x more data.
    assert(od.recall <= a4.recall + 0.25,
      f"OD ${od.recall}%.2f vs 4X ${a4.recall}%.2f")
    assert(od.recall >= a4.recall - 1e-9, "scanning more data must not lose recall")
  }

  test("Fig 11(b) shape: recall is monotone in accessed data across variants") {
    val bySize = odRows.sortBy(_.rowsAccessed)
    bySize.zip(bySize.drop(1)).foreach { case (a, b) =>
      assert(b.recall >= a.recall - 0.05, s"${a.system} -> ${b.system}")
    }
  }

  test("Figure 12: run and print the prefix-length sweep") {
    println("===== Figure 12: prefix length sweep =====")
    println(Ablation.renderPrefix(prefixRows))
    assert(prefixRows.size == 5)
  }

  test("Fig 12 shape: too-short prefixes lose recall versus the default band") {
    val rShort = prefixRows.minBy(_.m)
    val band = prefixRows.filter(r => r.m >= 10 && r.m <= 20).map(_.recall).max
    assert(rShort.recall <= band + 0.05, f"m=${rShort.m} ${rShort.recall}%.2f vs band $band%.2f")
  }

  test("Fig 12 shape: the global index stays tiny and stable across prefix lengths") {
    // Paper: the index grows with the prefix then stabilises (Algorithm 1's
    // safeguards); at bench scale it is flat — assert the stable band.
    val kbs = prefixRows.map(_.indexKb)
    assert(kbs.max < 5 * 1024, s"index too large: ${kbs.max} KB")
    assert(kbs.max <= 3 * kbs.min, s"index size unstable: $kbs")
  }

  test("Fig 12 shape: recall in the 10-20 band is substantial") {
    prefixRows.filter(r => r.m >= 10 && r.m <= 20).foreach { r =>
      assert(r.recall >= 0.25, f"m=${r.m}: ${r.recall}%.2f")
    }
  }
}
