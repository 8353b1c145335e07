package repro.scan

/** The order of every top-K in this project: ascending
  * `java.lang.Double.compare` on the distance, then the id, so NaN sorts
  * last and ties fall to the smaller id. A distance travels as a `Long` key
  * whose signed order is `Double.compare`'s, so (distance, id) pairs sort as
  * two primitive arrays.
  */
object KeySort {

  /** The key of `d`: `key(a) compare key(b)` has the sign of
    * `java.lang.Double.compare(a, b)`. Every NaN maps to `Double.NaN`'s key.
    */
  def key(d: Double): Long = {
    val b = java.lang.Double.doubleToLongBits(d)
    b ^ ((b >> 63) & Long.MaxValue)
  }

  /** The distance of a key: `distance(key(d))` has `d`'s bits, a NaN
    * coming back as `Double.NaN`.
    */
  def distance(key: Long): Double =
    java.lang.Double.longBitsToDouble(key ^ ((key >> 63) & Long.MaxValue))

  /** Is (`k1`, `id1`) before (`k2`, `id2`) in (key, id) order? */
  def less(k1: Long, id1: Long, k2: Long, id2: Long): Boolean =
    k1 < k2 || (k1 == k2 && id1 < id2)

  /** Reorder the pairs (`keys(i)`, `ids(i)`), i < `n`, so that the first
    * min(`k`, `n`) are the smallest in ascending (key, id) order; the rest
    * follow in no particular order. A partial quicksort: it never descends
    * into a range that starts at or beyond `k`.
    */
  def sortFirst(keys: Array[Long], ids: Array[Long], n: Int, k: Int): Unit =
    sort(keys, ids, 0, n, math.min(k, n))

  /** Ranges of at most this many pairs are insertion-sorted. */
  private final val InsertionMax = 16

  /** Sort [`from`, `to`) as far as position `k`. Partitions around the
    * median of three; recurses into the smaller side and loops on the other,
    * so the stack stays O(log n).
    */
  private def sort(keys: Array[Long], ids: Array[Long], from: Int, to: Int, k: Int): Unit = {
    def swap(a: Int, b: Int): Unit = {
      val t = keys(a); keys(a) = keys(b); keys(b) = t
      val u = ids(a); ids(a) = ids(b); ids(b) = u
    }
    def before(a: Int, b: Int): Boolean = less(keys(a), ids(a), keys(b), ids(b))
    var lo = from
    var hi = to
    while (lo < k && hi - lo > InsertionMax) {
      val mid = (lo + hi) >>> 1
      if (before(mid, lo)) swap(mid, lo)
      if (before(hi - 1, mid)) { swap(hi - 1, mid); if (before(mid, lo)) swap(mid, lo) }
      val pk = keys(mid)
      val pid = ids(mid)
      var i = lo
      var j = hi - 1
      while (i <= j) {
        while (less(keys(i), ids(i), pk, pid)) i += 1
        while (less(pk, pid, keys(j), ids(j))) j -= 1
        if (i <= j) { swap(i, j); i += 1; j -= 1 }
      }
      // [lo, j] holds pairs ≤ the pivot, [i, hi) pairs ≥ it, and j < i.
      if (j + 1 - lo < hi - i) { sort(keys, ids, lo, j + 1, k); lo = i }
      else { sort(keys, ids, i, hi, k); hi = j + 1 }
    }
    if (lo < k) {
      var a = lo + 1
      while (a < hi) {
        val ka = keys(a)
        val ia = ids(a)
        var b = a - 1
        while (b >= lo && less(ka, ia, keys(b), ids(b))) {
          keys(b + 1) = keys(b); ids(b + 1) = ids(b); b -= 1
        }
        keys(b + 1) = ka; ids(b + 1) = ia
        a += 1
      }
    }
  }
}
