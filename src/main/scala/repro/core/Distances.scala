package repro.core

/** Distance functions of the paper: Euclidean (Def. 3), Overlap Distance
  * (Def. 7), pivot decay weights (Def. 9), the covered weight behind Total
  * Weight (Def. 10) and Weight Distance (Def. 11), and the standard PAA
  * lower bound used by the Odyssey-like exact searcher.
  */
object Distances {

  /** Euclidean distance, Def. 3. */
  def euclidean(x: Array[Double], y: Array[Double]): Double = {
    // A plain throw, not `require`: its by-name message is a closure built per call.
    if (x.length != y.length) throw new IllegalArgumentException(
      s"requirement failed: length mismatch ${x.length} vs ${y.length}")
    var s = 0.0
    var i = 0
    while (i < x.length) { val d = x(i) - y(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Squared Euclidean distance (avoids the sqrt on hot ranking paths). */
  def squaredEuclidean(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < x.length) { val d = x(i) - y(i); s += d * d; i += 1 }
    s
  }

  /** Overlap Distance (Def. 7): `m − |P⁴⇉_X ∩ P⁴⇉_Y|`, in [0, m].
    * Both arguments are rank-insensitive signatures, i.e. sorted ascending
    * pivot-id vectors of the same length m; the intersection is computed
    * with a linear merge.
    */
  def overlap(x: Array[Int], y: Array[Int]): Int = {
    if (x.length != y.length) throw new IllegalArgumentException(
      s"requirement failed: signature length mismatch ${x.length} vs ${y.length}")
    val m = x.length
    var i = 0; var j = 0; var inter = 0
    while (i < m && j < m) {
      if (x(i) == y(j)) { inter += 1; i += 1; j += 1 }
      else if (x(i) < y(j)) i += 1
      else j += 1
    }
    m - inter
  }

  /** Decay function family from Def. 9. */
  sealed trait Decay { def weight(i: Int, m: Int): Double }

  /** Exponential decay `f(i, λ) = λ^(i−1)` with positions 1-based. */
  final case class ExpDecay(lambda: Double = 0.5) extends Decay {
    require(lambda > 0 && lambda < 1, "λ must be in (0,1)")
    def weight(i: Int, m: Int): Double = math.pow(lambda, (i - 1).toDouble)
  }

  /** Per-position weights of a rank-sensitive signature, Def. 9: position 1
    * (the closest pivot) gets the largest weight.
    */
  def pivotWeights(m: Int, decay: Decay): Array[Double] =
    Array.tabulate(m)(i => decay.weight(i + 1, m))

  /** The decayed weights `w` (Def. 9, one per position of `rs`) of the
    * pivots of `rs` present in the rank-insensitive centroid signature
    * `centroid` (sorted pivot ids). Weight Distance (Def. 11) is the Total
    * Weight (Def. 10, `w.sum`) minus this: smaller means the centroid covers
    * X's most important pivots. Callers that rank many centroids compute `w`
    * once.
    */
  def coveredWeight(rs: Array[Int], centroid: Array[Int], w: Array[Double]): Double = {
    var covered = 0.0
    var i = 0
    while (i < rs.length) {
      if (java.util.Arrays.binarySearch(centroid, rs(i)) >= 0) covered += w(i)
      i += 1
    }
    covered
  }

  /** Standard PAA lower bound on ED for z-length-n series reduced to w
    * segments: `sqrt(n/w · Σ (paaX_i − paaY_i)²) ≤ ED(X, Y)`.
    */
  def paaLowerBound(paaX: Array[Double], paaY: Array[Double], n: Int): Double = {
    val w = paaX.length
    math.sqrt((n.toDouble / w) * squaredEuclidean(paaX, paaY))
  }
}
