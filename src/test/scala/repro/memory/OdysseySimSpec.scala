package repro.memory

import repro.SparkSpec
import repro.scan.Dss
import repro.series.SeriesGen

class OdysseySimSpec extends SparkSpec {

  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 800, seed = 9).cache()
  private lazy val ody = OdysseySim.build(df, 800, Long.MaxValue, paaW = 16).toOption.get

  test("build refuses datasets beyond the memory budget (the Table I 'X')") {
    val r = OdysseySim.build(df, nSeries = 800, budgetSeries = 500, paaW = 16)
    assert(r.isLeft)
    assert(r.left.toOption.get.contains("budget"))
  }

  test("build succeeds within the budget") {
    assert(OdysseySim.build(df, 800, 800, 16).isRight)
  }

  test("Odyssey is exact: results equal Dss for several queries") {
    for (qid <- Seq(0L, 123L, 700L)) {
      val q = SeriesGen.local("RandomWalk", qid, 9)
      val got = ody.knn(q, 25)
      val exp = Dss.knn(df, q, 25)
      assert(got.map(_._1) == exp.map(_._1), s"query $qid")
    }
  }

  test("recall of the exact engine is 1.0 by construction") {
    val qs = Seq(5L, 50L).map(id => (id, SeriesGen.local("RandomWalk", id, 9)))
    val truth = Dss.knnBatch(spark, df, qs, 30)
    qs.foreach { case (qid, q) =>
      assert(repro.exp.Workloads.recall(ody.knn(q, 30).map(_._1), truth(qid)) == 1.0)
    }
  }

  test("lower-bound pruning actually skips ED computations") {
    val q = SeriesGen.local("RandomWalk", 10L, 9)
    val (res, scanned) = ody.knnScanned(q, 5)
    assert(res == ody.knn(q, 5))
    assert(scanned < 800, s"scanned $scanned of 800 — no pruning")
  }

  test("pruning never sacrifices exactness at any k") {
    val q = SeriesGen.local("RandomWalk", 321L, 9)
    for (k <- Seq(1, 10, 100)) {
      assert(ody.knn(q, k).map(_._1) == Dss.knn(df, q, k).map(_._1))
    }
  }

  test("results are sorted by (distance, id)") {
    val q = SeriesGen.local("RandomWalk", 64L, 9)
    val res = ody.knn(q, 40)
    assert(res == res.sortBy { case (id, d) => (d, id) })
  }

  test("knnScanned's results and scanned counts are pinned") {
    // (query, k) → scanned, as the boxed full sort of the candidates gave them.
    val pinned = Map((10L, 1) -> 2, (10L, 5) -> 20, (10L, 40) -> 76, (10L, 100) -> 132,
      (64L, 1) -> 2, (64L, 5) -> 46, (64L, 40) -> 127, (64L, 100) -> 206,
      (321L, 1) -> 2, (321L, 5) -> 27, (321L, 40) -> 87, (321L, 100) -> 148)
    for (((qid, k), scanned) <- pinned) {
      val q = SeriesGen.local("RandomWalk", qid, 9)
      val (res, got) = ody.knnScanned(q, k)
      assert(got == scanned, s"query $qid, k = $k")
      assert(res.map(_._1) == Dss.knn(df, q, k).map(_._1), s"query $qid, k = $k")
    }
  }

  test("candidates tied on the lower bound are scanned in index order") {
    val s = Array(1.0, 2.0, 3.0, 4.0)
    // Equal series: the first one scanned is kept, and that is index 0.
    val sim = new OdysseySim(Array(9L, 3L, 5L), Array(s, s.clone(), s.map(_ + 1)), paaW = 2)
    assert(sim.knnScanned(s, 1) == ((Seq((9L, 0.0)), 3)))
  }
}
