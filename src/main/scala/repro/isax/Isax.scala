package repro.isax

/** SAX / iSAX representation substrate (§III-B, Figure 1), needed by the
  * DPiSAX and TARDIS baselines.
  *
  * A PAA vector is encoded segment-by-segment into symbols: the value axis
  * is cut into `2^bits` stripes whose boundaries are the N(0,1) quantiles
  * (series are z-normalised), and a segment's symbol is the index of the
  * stripe containing its mean. Symbols at a coarser cardinality are bit
  * prefixes of the finer symbols (the iSAX promotion property), because the
  * quantile grids are nested.
  */
object Isax {

  /** Inverse standard normal CDF (Acklam's rational approximation,
    * |rel err| < 1.15e-9). Used to compute breakpoints for any cardinality
    * instead of shipping lookup tables.
    */
  def invNormCdf(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"p=$p out of (0,1)")
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

  private val bpCache = new java.util.concurrent.ConcurrentHashMap[Int, Array[Double]]()

  /** The `card − 1` stripe boundaries for a cardinality (N(0,1) quantiles
    * at i/card), sorted ascending.
    */
  def breakpoints(card: Int): Array[Double] = {
    require(card >= 2, "cardinality must be >= 2")
    bpCache.computeIfAbsent(card, c => Array.tabulate(c - 1)(i => invNormCdf((i + 1).toDouble / c)))
  }

  /** Symbol (stripe index, 0 = lowest values) of one value at `2^bits`
    * cardinality.
    */
  def symbol(v: Double, bits: Int): Int = {
    val bps = breakpoints(1 << bits)
    val idx = java.util.Arrays.binarySearch(bps, v)
    if (idx >= 0) idx + 1 else -(idx + 1)
  }

  /** SAX word of a PAA vector: one symbol per segment at `2^bits`. */
  def word(paa: Array[Double], bits: Int): Array[Int] =
    paa.map(symbol(_, bits))

  /** iSAX promotion: the top `toBits` of a symbol encoded with `fromBits`. */
  def promote(sym: Int, fromBits: Int, toBits: Int): Int = {
    require(toBits <= fromBits, "can only promote to a coarser cardinality")
    sym >>> (fromBits - toBits)
  }
}
