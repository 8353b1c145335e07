package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.Distances._

class DistancesSpec extends SparkSpec {

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }

  private val vecGen: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](8, Gen.choose(-10.0, 10.0))

  // ---------------- Euclidean distance (Def. 3) ----------------

  test("ED: identity of indiscernibles") {
    check(Prop.forAll(vecGen)(x => euclidean(x, x) == 0.0))
  }

  test("ED: symmetry") {
    check(Prop.forAll(vecGen, vecGen)((x, y) =>
      math.abs(euclidean(x, y) - euclidean(y, x)) < 1e-12))
  }

  test("ED: non-negativity") {
    check(Prop.forAll(vecGen, vecGen)((x, y) => euclidean(x, y) >= 0.0))
  }

  test("ED: triangle inequality") {
    check(Prop.forAll(vecGen, vecGen, vecGen)((x, y, z) =>
      euclidean(x, z) <= euclidean(x, y) + euclidean(y, z) + 1e-9))
  }

  test("ED: known value") {
    assert(euclidean(Array(0.0, 0.0), Array(3.0, 4.0)) == 5.0)
  }

  test("ED: length mismatch rejected") {
    intercept[IllegalArgumentException](euclidean(Array(1.0), Array(1.0, 2.0)))
  }

  test("squaredEuclidean is ED²") {
    check(Prop.forAll(vecGen, vecGen) { (x, y) =>
      math.abs(squaredEuclidean(x, y) - math.pow(euclidean(x, y), 2)) < 1e-9
    })
  }

  // ---------------- Overlap Distance (Def. 7) ----------------

  private def sig(xs: Int*): Array[Int] = xs.toArray.sorted

  test("OD: paper example — <1,3,6,8> vs <2,3,4,6> gives 2") {
    assert(overlap(sig(1, 3, 6, 8), sig(2, 3, 4, 6)) == 2)
  }

  test("OD: identical signatures give 0") {
    assert(overlap(sig(1, 2, 3), sig(1, 2, 3)) == 0)
  }

  test("OD: disjoint signatures give m") {
    assert(overlap(sig(1, 2, 3), sig(4, 5, 6)) == 3)
  }

  test("OD: bounded in [0, m] and symmetric") {
    val pick = Gen.pick(5, 0 until 20).map(_.toArray.sorted)
    check(Prop.forAll(pick, pick) { (a, b) =>
      val d = overlap(a, b)
      d >= 0 && d <= 5 && d == overlap(b, a)
    })
  }

  test("OD: length mismatch rejected") {
    intercept[IllegalArgumentException](overlap(sig(1, 2), sig(1, 2, 3)))
  }

  // ---------------- Decay weights (Def. 9) ----------------

  test("exponential decay: λ=1/2 sequence is [1, 1/2, 1/4, ...]") {
    assert(pivotWeights(4, ExpDecay(0.5)).toSeq == Seq(1.0, 0.5, 0.25, 0.125))
  }

  test("decay weights are strictly decreasing (Def. 9 requirement)") {
    for (decay <- Seq(ExpDecay(0.5), ExpDecay(0.9), ExpDecay(0.1)); m <- Seq(2, 5, 10, 20)) {
      val w = pivotWeights(m, decay)
      w.sliding(2).foreach(p => assert(p(0) > p(1), s"$decay m=$m"))
    }
  }

  test("exponential decay rejects λ outside (0,1)") {
    intercept[IllegalArgumentException](ExpDecay(0.0))
    intercept[IllegalArgumentException](ExpDecay(1.0))
  }

  // ---------------- Total Weight (Def. 10) ----------------

  /** Total Weight: the sum of the position weights. */
  private def tw(m: Int): Double = pivotWeights(m, ExpDecay(0.5)).sum

  test("TW is a constant for fixed (m, decay)") {
    assert(tw(3) == 1.75)
    assert(math.abs(pivotWeights(2, ExpDecay(0.9)).sum - 1.9) < 1e-12)
  }

  // ---------------- Weight Distance (Def. 11) ----------------

  /** Weight Distance under λ = 1/2: TW minus the weight `rs`'s pivots in `c` cover. */
  private def weightDistance(rs: Array[Int], c: Array[Int]): Double =
    tw(rs.length) - coveredWeight(rs, c, pivotWeights(rs.length, ExpDecay(0.5)))

  test("WD: paper Example 1 — WD(Y, o1)=1.0 and WD(Y, o2)=0.25") {
    val yRs = Array(4, 2, 1)
    assert(math.abs(weightDistance(yRs, sig(1, 2, 3)) - 1.0) < 1e-12)
    assert(math.abs(weightDistance(yRs, sig(2, 4, 5)) - 0.25) < 1e-12)
  }

  test("WD: paper Example 1 — WD(Z, o1) = WD(Z, o2) = 1.25 (the tie)") {
    val zRs = Array(6, 2, 7)
    assert(math.abs(weightDistance(zRs, sig(1, 2, 3)) - 1.25) < 1e-12)
    assert(math.abs(weightDistance(zRs, sig(2, 4, 5)) - 1.25) < 1e-12)
  }

  test("WD: full coverage gives 0, zero coverage gives TW") {
    val rs = Array(3, 1, 2)
    assert(weightDistance(rs, sig(1, 2, 3)) == 0.0)
    assert(weightDistance(rs, sig(7, 8, 9)) == tw(3))
  }

  test("WD: bounded in [0, TW]") {
    val pick = Gen.pick(5, 0 until 15)
    check(Prop.forAll(pick, pick) { (rsP, cP) =>
      val rs = rsP.toArray
      val c = cP.toArray.sorted
      val d = weightDistance(rs, c)
      d >= -1e-12 && d <= tw(5) + 1e-12
    })
  }

  test("WD: covering a higher-ranked pivot lowers WD more than a lower-ranked one") {
    val rs = Array(10, 11, 12)
    val coverFirst = weightDistance(rs, sig(10, 98, 99))
    val coverLast = weightDistance(rs, sig(12, 98, 99))
    assert(coverFirst < coverLast)
  }

  // ---------------- PAA lower bound ----------------

  test("paaLowerBound is 0 for identical vectors") {
    val p = Array(1.0, 2.0, 3.0, 4.0)
    assert(paaLowerBound(p, p, 16) == 0.0)
  }

  test("paaLowerBound scales with sqrt(n/w)") {
    val a = Array(0.0, 0.0)
    val b = Array(1.0, 1.0)
    assert(math.abs(paaLowerBound(a, b, 8) - math.sqrt(4.0 * 2.0)) < 1e-12)
  }
}
