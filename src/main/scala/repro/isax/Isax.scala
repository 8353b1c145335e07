package repro.isax

import org.apache.commons.math3.special.Erf

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

  /** Inverse standard normal CDF, from commons-math3's inverse error
    * function. Used to compute breakpoints for any cardinality instead of
    * shipping lookup tables.
    */
  def invNormCdf(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"p=$p out of (0,1)")
    math.sqrt(2) * Erf.erfInv(2 * p - 1)
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
