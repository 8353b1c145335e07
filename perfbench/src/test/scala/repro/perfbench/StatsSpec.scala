package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("percentile interpolates between closest ranks") {
    val xs = (1 to 11).map(_.toDouble) // 1..11
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.percentile(xs, 100) == 11.0)
    assert(Stats.percentile(xs, 90) == 10.0)
    assert(math.abs(Stats.percentile(Seq(0.0, 10.0), 75) - 7.5) < 1e-12)
  }

  test("percentile rejects empty samples and out-of-range percentiles") {
    assertThrows[IllegalArgumentException](Stats.percentile(Nil, 50))
    assertThrows[IllegalArgumentException](Stats.percentile(Seq(1.0), 101))
  }

  test("beyond counts the samples above a percentile's rank") {
    assert(Stats.beyond(100, 90) == 10)
    assert(Stats.beyond(99, 90) == 9)
    assert(Stats.beyond(40, 75) == 10)
    assert(Stats.beyond(1000, 99) == 10)
  }

  test("tail is the highest percentile with at least ten samples beyond it") {
    val xs = (1 to 1000).map(_.toDouble)
    assert(Stats.tail(xs).map(_.pct).contains(99.0))
    assert(Stats.tail(xs.take(100)).map(_.pct).contains(90.0))
    assert(Stats.tail(xs.take(99)).map(_.pct).contains(75.0))
    assert(Stats.tail(xs.take(40)).map(_.pct).contains(75.0))
    assert(Stats.tail(xs.take(39)).map(_.pct).contains(50.0))
    assert(Stats.tail(xs.take(19)).isEmpty)
  }

  test("a tail reports its sample count") {
    val t = Stats.tail((1 to 200).map(_.toDouble)).get
    assert(t.samples == 200 && t.beyond == 10 && t.pct == 95.0)
    assert(t.label == "p95 (n=200, 10 beyond)")
  }
}
