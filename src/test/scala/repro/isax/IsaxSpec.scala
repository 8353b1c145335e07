package repro.isax

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.Paa
import repro.series.SeriesGen

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

  /** Acklam's rational approximation of the inverse normal CDF (|rel err| <
    * 1.15e-9), the quantile the iSAX words were built from before
    * `invNormCdf` used commons-math3; kept as the reference it is checked
    * against.
    */
  private def acklam(p: Double): Double = {
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
    val pl = 0.02425
    if (p < pl) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pl) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  private def acklamBreakpoints(card: Int): Array[Double] =
    Array.tabulate(card - 1)(i => acklam((i + 1).toDouble / card))

  test("breakpoints match Acklam's approximation within 1e-8 at every power-of-two cardinality") {
    for (card <- (1 to 8).map(1 << _)) {
      val gaps = Isax.breakpoints(card).zip(acklamBreakpoints(card)).map { case (x, y) => math.abs(x - y) }
      assert(gaps.length == card - 1 && gaps.max < 1e-8, s"card $card: gap ${gaps.max}")
    }
  }

  test("the baselines' iSAX words are the same under Acklam's breakpoints on every dataset") {
    val ref = acklamBreakpoints(1 << BaselineCommon.Bits)
    def refWord(series: Array[Double]): Seq[Int] = Paa.of(series, BaselineCommon.PaaW).toSeq.map { v =>
      val idx = java.util.Arrays.binarySearch(ref, v)
      if (idx >= 0) idx + 1 else -(idx + 1)
    }
    for (name <- SeriesGen.Datasets; id <- 0L until 2000L) {
      val series = SeriesGen.local(name, id, 42L)
      assert(BaselineCommon.wordOf(series).toSeq == refWord(series), s"$name id $id")
    }
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
