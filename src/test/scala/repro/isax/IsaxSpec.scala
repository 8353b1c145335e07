package repro.isax

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec

class IsaxSpec extends SparkSpec {

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }

  // ---------------- inverse normal CDF ----------------

  test("invNormCdf at 0.5 is 0") {
    assert(math.abs(Isax.invNormCdf(0.5)) < 1e-9)
  }

  test("invNormCdf known quantiles") {
    assert(math.abs(Isax.invNormCdf(0.975) - 1.959964) < 1e-4)
    assert(math.abs(Isax.invNormCdf(0.84134) - 1.0) < 1e-3)
    assert(math.abs(Isax.invNormCdf(0.158655) + 1.0) < 1e-3)
  }

  test("invNormCdf is antisymmetric about 0.5") {
    check(Prop.forAll(Gen.choose(0.001, 0.499)) { p =>
      math.abs(Isax.invNormCdf(p) + Isax.invNormCdf(1 - p)) < 1e-7
    })
  }

  test("invNormCdf is monotone") {
    val ps = (1 until 100).map(_ / 100.0)
    val vs = ps.map(Isax.invNormCdf)
    vs.sliding(2).foreach(p => assert(p(0) < p(1)))
  }

  test("invNormCdf rejects p outside (0,1)") {
    intercept[IllegalArgumentException](Isax.invNormCdf(0.0))
    intercept[IllegalArgumentException](Isax.invNormCdf(1.0))
  }

  // ---------------- breakpoints ----------------

  test("breakpoints(card) has card−1 sorted values") {
    for (card <- Seq(2, 4, 8, 16, 256)) {
      val bps = Isax.breakpoints(card)
      assert(bps.length == card - 1)
      bps.zip(bps.drop(1)).foreach { case (a, b) => assert(a < b) }
    }
  }

  test("breakpoints(2) is [0] (the Gaussian median)") {
    val bps = Isax.breakpoints(2)
    assert(bps.length == 1 && math.abs(bps(0)) < 1e-9)
  }

  test("paper Figure 1: stripe '111' of card 8 starts near 1.15") {
    // With 8 stripes, the top stripe's lower boundary is the 7/8 quantile.
    assert(math.abs(Isax.breakpoints(8).last - 1.15) < 0.01)
  }

  test("breakpoints grids are nested across powers of two") {
    val b4 = Isax.breakpoints(4)
    val b8 = Isax.breakpoints(8)
    b4.foreach(v => assert(b8.exists(w => math.abs(v - w) < 1e-12)))
  }

  // ---------------- symbols and words ----------------

  test("symbol maps value ranges to stripe indexes") {
    assert(Isax.symbol(-10.0, 3) == 0)
    assert(Isax.symbol(10.0, 3) == 7)
    assert(Isax.symbol(0.01, 1) == 1)
    assert(Isax.symbol(-0.01, 1) == 0)
  }

  test("symbol is monotone in the value") {
    check(Prop.forAll(Gen.choose(-3.0, 3.0), Gen.choose(-3.0, 3.0)) { (a, b) =>
      val (lo, hi) = (math.min(a, b), math.max(a, b))
      Isax.symbol(lo, 6) <= Isax.symbol(hi, 6)
    })
  }

  test("word encodes each PAA segment independently") {
    val w = Isax.word(Array(-10.0, 0.01, 10.0), 2)
    assert(w.toSeq == Seq(0, 2, 3))
  }

  test("promote matches re-encoding at the coarser cardinality") {
    check(Prop.forAll(Gen.choose(-3.0, 3.0)) { v =>
      val fine = Isax.symbol(v, 8)
      (1 to 8).forall(b => Isax.promote(fine, 8, b) == Isax.symbol(v, b))
    })
  }

  test("promote rejects refinement") {
    intercept[IllegalArgumentException](Isax.promote(3, 2, 4))
  }
}
