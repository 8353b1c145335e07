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
  *      the record id (the paper picks randomly; keying on the id keeps the
  *      whole pipeline reproducible).
  *
  * Centroid ids are 1-based; id 0 is reserved for the fall-back group G₀
  * whose centroid is the special `<*,*,…>` entry of Algorithm 2.
  */
object GroupAssign {

  /** Deterministic stand-in for Algorithm 1's random tie-break. */
  def tieBreak(recordId: Long, candidates: Seq[Int]): Int = SplitMix.pick(recordId, candidates)

  /** Lines 1-7: the ascending ids of the centroids at the smallest Overlap
    * Distance to `ri`, or `Seq(0)` (G₀) when `ri` overlaps no centroid.
    */
  def odSmallest(ri: Array[Int], centroids: IndexedSeq[Array[Int]]): Seq[Int] =
    ArraySeq.unsafeWrapArray(odTies(ri, centroids))

  /** Lines 1-12 (Algorithm 3, lines 5-9): the smallest-OD groups, narrowed
    * on ties to those at the smallest Weight Distance. Ascending ids.
    */
  def rank(rs: Array[Int], ri: Array[Int], centroids: IndexedSeq[Array[Int]],
           decay: Decay): Seq[Int] =
    ArraySeq.unsafeWrapArray(ranked(rs, ri, centroids, decay))

  /** Assign one object. `centroids` maps 1-based group id → sorted
    * rank-insensitive signature. Returns the chosen group id (0 = G₀).
    */
  def assign(recordId: Long, rs: Array[Int], ri: Array[Int],
             centroids: IndexedSeq[Array[Int]], decay: Decay): Int = {
    val best = ranked(rs, ri, centroids, decay)
    // Lines 13-14: second tie — (deterministic) random pick.
    if (best.length == 1) best(0) else tieBreak(recordId, ArraySeq.unsafeWrapArray(best))
  }

  /** `rank` on primitive arrays, the one implementation behind all three
    * public functions.
    */
  private def ranked(rs: Array[Int], ri: Array[Int], centroids: IndexedSeq[Array[Int]],
                     decay: Decay): Array[Int] = {
    val best = odTies(ri, centroids)
    if (best.length == 1) best else wdTies(best, rs, centroids, decay)
  }

  /** Lines 1-7, computing each centroid's OD once. */
  private def odTies(ri: Array[Int], centroids: IndexedSeq[Array[Int]]): Array[Int] = {
    val n = centroids.length
    val od = new Array[Int](n)
    var minOd = ri.length // an OD is at most m, and m for every centroid means G₀
    var ties = 0
    var i = 0
    while (i < n) {
      od(i) = Distances.overlap(centroids(i), ri)
      if (od(i) < minOd) { minOd = od(i); ties = 1 }
      else if (od(i) == minOd) ties += 1
      i += 1
    }
    if (minOd == ri.length) return Array(0)
    val ids = new Array[Int](ties)
    var t = 0
    i = 0
    while (t < ties) {
      if (od(i) == minOd) { ids(t) = i + 1; t += 1 }
      i += 1
    }
    ids
  }

  /** Lines 8-12: the OD-tied ids `best` at the smallest Weight Distance,
    * with `rs`'s decay weights computed once for all of them.
    */
  private def wdTies(best: Array[Int], rs: Array[Int], centroids: IndexedSeq[Array[Int]],
                     decay: Decay): Array[Int] = {
    val w = Distances.pivotWeights(rs.length, decay)
    val tw = w.sum
    val wd = best.map(g => tw - Distances.coveredWeight(rs, centroids(g - 1), w))
    val minWd = wd.min
    best.indices.iterator.filter(wd(_) == minWd).map(best(_)).toArray
  }
}
