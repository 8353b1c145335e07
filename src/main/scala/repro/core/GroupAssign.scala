package repro.core

import scala.collection.immutable.ArraySeq

import repro.core.Distances.Decay

/** Algorithm 1 — Group Assignment Rules (§IV-C).
  *
  * An object X (with dual signatures rs/ri) is assigned to one of the group
  * centroids (rank-insensitive signatures) by:
  *   1. smallest Overlap Distance (Def. 7); if X overlaps *no* centroid at
  *      all (all OD = m) it falls back to the special group G₀ (id 0);
  *   2. ties broken by smallest Weight Distance (Def. 11) using the decayed
  *      pivot weights of X's rank-sensitive signature;
  *   3. remaining ties broken by a deterministic pseudo-random pick keyed on
  *      the object's P⁴→ (the paper picks randomly; keying on the signature
  *      keeps the pipeline reproducible, and sends a sampled signature and
  *      every record that has it to the same group).
  *
  * Centroid ids are 1-based; id 0 is reserved for the fall-back group G₀
  * whose centroid is the special `<*,*,…>` entry of Algorithm 2.
  */
object GroupAssign {

  /** One group of `order`'s ranking with its Overlap and Weight Distance. */
  final case class Ranked(group: Int, od: Int, wd: Double)

  /** The one OD → WD ranking of the groups (Algorithm 3, lines 5-9, over
    * every group): each group that shares a pivot with `ri`, by ascending
    * (OD, WD, id), then G₀ with OD m and WD = TW. Its first (OD, WD) tier is
    * `assign`'s candidates, its first OD tier OD-Smallest's groups.
    */
  def order(rs: Array[Int], ri: Array[Int], centroids: IndexedSeq[Array[Int]],
            decay: Decay): IndexedSeq[Ranked] = {
    val od = overlaps(ri, centroids)
    val w = Distances.pivotWeights(rs.length, decay)
    val tw = w.sum
    val shared = od.indices.filter(od(_) < ri.length).map(i =>
      Ranked(i + 1, od(i), tw - Distances.coveredWeight(rs, centroids(i), w)))
    shared.sortBy(r => (r.od, r.wd, r.group)) :+ Ranked(0, ri.length, tw)
  }

  /** Assign one object to a group of `order`'s head tier (0 = G₀), on
    * primitive arrays and with WD only for the OD-tied centroids; `key`
    * seeds the pick among (OD, WD) ties. `centroids` maps 1-based group id →
    * sorted rank-insensitive signature.
    */
  def assign(key: Long, rs: Array[Int], ri: Array[Int],
             centroids: IndexedSeq[Array[Int]], decay: Decay): Int = {
    // Lines 1-7: the smallest OD; m for every centroid means G₀.
    val od = overlaps(ri, centroids)
    var minOd = ri.length
    var ties = 0
    var i = 0
    while (i < od.length) {
      if (od(i) < minOd) { minOd = od(i); ties = 1 }
      else if (od(i) == minOd) ties += 1
      i += 1
    }
    if (minOd == ri.length) return 0
    val best = new Array[Int](ties)
    var t = 0
    i = 0
    while (t < ties) {
      if (od(i) == minOd) { best(t) = i + 1; t += 1 }
      i += 1
    }
    if (ties == 1) return best(0)
    // Lines 8-12: the smallest WD among the OD ties, `rs`'s weights computed once.
    val w = Distances.pivotWeights(rs.length, decay)
    val tw = w.sum
    val wd = best.map(g => tw - Distances.coveredWeight(rs, centroids(g - 1), w))
    val minWd = wd.min
    val tied = best.indices.iterator.filter(wd(_) == minWd).map(best(_)).toArray
    // Lines 13-14: second tie — (deterministic) random pick.
    if (tied.length == 1) tied(0) else SplitMix.pick(key, ArraySeq.unsafeWrapArray(tied))
  }

  /** Each centroid's Overlap Distance to `ri`. */
  private def overlaps(ri: Array[Int], centroids: IndexedSeq[Array[Int]]): Array[Int] = {
    val od = new Array[Int](centroids.length)
    var i = 0
    while (i < od.length) { od(i) = Distances.overlap(centroids(i), ri); i += 1 }
    od
  }
}
