package repro.perfbench

/** Order statistics for timings: the median and the tail percentile, where
  * the tail is the highest percentile that still has at least
  * `Stats.MinBeyond` samples beyond it.
  */
object Stats {

  /** Fewest samples that must lie above a percentile for it to be reported. */
  val MinBeyond: Int = 10

  /** Candidate tail percentiles, highest first. */
  val TailLadder: Seq[Double] = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** A percentile with the sample count behind it. */
  final case class Tail(pct: Double, value: Double, samples: Int, beyond: Int) {
    def label: String = {
      val p = if (pct == pct.floor) f"$pct%.0f" else pct.toString
      s"p$p (n=$samples, $beyond beyond)"
    }
  }

  /** Percentile `p` in [0, 100] by linear interpolation between closest
    * ranks (numpy's default); `xs` must be non-empty.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p >= 0 && p <= 100, s"percentile $p outside [0, 100]")
    val s = xs.sorted.toIndexedSeq
    val pos = (s.length - 1) * p / 100.0
    val lo = pos.floor.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Number of samples strictly above the `p`-th percentile's rank. */
  def beyond(n: Int, p: Double): Int = n - math.ceil(n * p / 100.0 - 1e-9).toInt

  /** Percentile `p` with its sample count. */
  def at(xs: Seq[Double], p: Double): Tail = Tail(p, percentile(xs, p), xs.size, beyond(xs.size, p))

  /** The highest ladder percentile with at least `MinBeyond` samples above
    * it, or `None` when the sample is too small for any.
    */
  def tail(xs: Seq[Double]): Option[Tail] =
    TailLadder.find(p => beyond(xs.size, p) >= MinBeyond).map(at(xs, _))
}
