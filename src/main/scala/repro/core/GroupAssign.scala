package repro.core

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
  def odSmallest(ri: Array[Int], centroids: IndexedSeq[Array[Int]]): Seq[Int] = {
    val od = centroids.map(c => Distances.overlap(c, ri))
    val minOd = if (od.isEmpty) ri.length else od.min
    if (minOd == ri.length) Seq(0)
    else od.indices.filter(i => od(i) == minOd).map(_ + 1)
  }

  /** Lines 1-12 (Algorithm 3, lines 5-9): the smallest-OD groups, narrowed
    * on ties to those at the smallest Weight Distance. Ascending ids.
    */
  def rank(rs: Array[Int], ri: Array[Int], centroids: IndexedSeq[Array[Int]],
           decay: Decay): Seq[Int] = {
    val best = odSmallest(ri, centroids)
    if (best.size == 1) best
    else {
      val wd = best.map(g => Distances.weightDistance(rs, centroids(g - 1), decay))
      val minWd = wd.min
      best.zip(wd).collect { case (g, d) if d == minWd => g }
    }
  }

  /** Assign one object. `centroids` maps 1-based group id → sorted
    * rank-insensitive signature. Returns the chosen group id (0 = G₀).
    */
  def assign(recordId: Long, rs: Array[Int], ri: Array[Int],
             centroids: IndexedSeq[Array[Int]], decay: Decay): Int = {
    val best = rank(rs, ri, centroids, decay)
    // Lines 13-14: second tie — (deterministic) random pick.
    if (best.size == 1) best.head else tieBreak(recordId, best)
  }
}
