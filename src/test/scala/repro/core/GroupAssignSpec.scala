package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.Distances.{Decay, ExpDecay}

class GroupAssignSpec extends SparkSpec {

  private val decay = ExpDecay(0.5)
  // Paper Example 1: centroids o1 = <1,2,3>, o2 = <2,4,5>.
  private val centroids = IndexedSeq(Array(1, 2, 3), Array(2, 4, 5))

  test("Example 1: X with rs=<3,4,1> is assigned to G1 by unique smallest OD") {
    val g = GroupAssign.assign(1L, Array(3, 4, 1), Array(1, 3, 4), centroids, decay)
    assert(g == 1)
  }

  test("Example 1: Y with rs=<4,2,1> ties on OD and goes to G2 by WD") {
    val g = GroupAssign.assign(2L, Array(4, 2, 1), Array(1, 2, 4), centroids, decay)
    assert(g == 2)
  }

  test("Example 1: Z with rs=<6,2,7> double-ties and lands in G1 or G2") {
    val g = GroupAssign.assign(3L, Array(6, 2, 7), Array(2, 6, 7), centroids, decay)
    assert(g == 1 || g == 2)
  }

  test("double-tie pick is deterministic per record id but varies across ids") {
    val picks = (0L until 200L).map(id =>
      GroupAssign.assign(id, Array(6, 2, 7), Array(2, 6, 7), centroids, decay))
    assert(picks.toSet == Set(1, 2)) // both groups are reachable
    val again = (0L until 200L).map(id =>
      GroupAssign.assign(id, Array(6, 2, 7), Array(2, 6, 7), centroids, decay))
    assert(picks == again) // and the pick is a pure function of the id
  }

  test("zero overlap with every centroid falls back to G0 (lines 3-5)") {
    val g = GroupAssign.assign(4L, Array(9, 8, 7), Array(7, 8, 9), centroids, decay)
    assert(g == 0)
  }

  test("exact centroid match wins") {
    val g = GroupAssign.assign(5L, Array(3, 2, 1), Array(1, 2, 3), centroids, decay)
    assert(g == 1)
  }

  test("empty centroid list always falls back to G0") {
    assert(GroupAssign.assign(6L, Array(1, 2, 3), Array(1, 2, 3), IndexedSeq.empty, decay) == 0)
  }

  test("assignment only depends on overlap, not on order within the ri signature") {
    // Same ri set as Example-1 X but a different rs ordering: OD is unique, so
    // the rank-sensitive part must not matter.
    val g = GroupAssign.assign(7L, Array(1, 3, 4), Array(1, 3, 4), centroids, decay)
    assert(g == 1)
  }

  test("WD tie-break prefers the centroid covering the higher-weighted pivot") {
    // rs = <10, 2> → pivot 10 has weight 1.0, pivot 2 has weight 0.5.
    // c1 = {2, 30}: covers the lesser pivot; c2 = {10, 31}: covers the top one.
    // Both have OD = 1.
    val cs = IndexedSeq(Array(2, 30), Array(10, 31))
    val g = GroupAssign.assign(8L, Array(10, 2), Array(2, 10), cs, decay)
    assert(g == 2)
  }

  test("SplitMix.pick returns only candidates and is stable") {
    val cands = Seq(3, 5, 9)
    for (key <- 0L until 100L) {
      val p = SplitMix.pick(key, cands)
      assert(cands.contains(p))
      assert(p == SplitMix.pick(key, cands))
    }
  }

  test("SplitMix.pick covers all candidates over many keys") {
    val cands = Seq(1, 2, 3, 4)
    val seen = (0L until 500L).map(SplitMix.pick(_, cands)).toSet
    assert(seen == cands.toSet)
  }

  /** The earlier collection formulation of Algorithm 1, kept as the
    * reference, with the Weight Distance of Def. 11 as it was written.
    */
  private object Reference {
    def weightDistance(rs: Array[Int], centroid: Array[Int], decay: Decay): Double = {
      val m = rs.length
      val w = Distances.pivotWeights(m, decay)
      var covered = 0.0
      var i = 0
      while (i < m) {
        if (java.util.Arrays.binarySearch(centroid, rs(i)) >= 0) covered += w(i)
        i += 1
      }
      w.sum - covered
    }

    def odSmallest(ri: Array[Int], centroids: IndexedSeq[Array[Int]]): Seq[Int] = {
      val od = centroids.map(c => Distances.overlap(c, ri))
      val minOd = if (od.isEmpty) ri.length else od.min
      if (minOd == ri.length) Seq(0)
      else od.indices.filter(i => od(i) == minOd).map(_ + 1)
    }

    def rank(rs: Array[Int], ri: Array[Int], centroids: IndexedSeq[Array[Int]],
             decay: Decay): Seq[Int] = {
      val best = odSmallest(ri, centroids)
      if (best.size == 1) best
      else {
        val wd = best.map(g => weightDistance(rs, centroids(g - 1), decay))
        val minWd = wd.min
        best.zip(wd).collect { case (g, d) if d == minWd => g }
      }
    }

    def assign(key: Long, rs: Array[Int], ri: Array[Int],
               centroids: IndexedSeq[Array[Int]], decay: Decay): Int = {
      val best = rank(rs, ri, centroids, decay)
      if (best.size == 1) best.head else SplitMix.pick(key, best)
    }

    /** Every group sharing a pivot with `ri` by (OD, WD, id), then G₀. */
    def order(rs: Array[Int], ri: Array[Int], centroids: IndexedSeq[Array[Int]],
              decay: Decay): Seq[(Int, Int, Double)] = {
      val shared = centroids.indices.map(i =>
        (i + 1, Distances.overlap(centroids(i), ri), weightDistance(rs, centroids(i), decay)))
        .filter(_._2 < ri.length)
      shared.sortBy { case (g, od, wd) => (od, wd, g) } :+
        ((0, ri.length, Distances.pivotWeights(rs.length, decay).sum))
    }
  }

  /** `rank` and `odSmallest` as cuts of `order`: its head (OD, WD) tier and
    * its head OD tier.
    */
  private def rankCut(o: Seq[GroupAssign.Ranked]): Seq[Int] =
    o.takeWhile(r => r.od == o.head.od && r.wd == o.head.wd).map(_.group)
  private def odCut(o: Seq[GroupAssign.Ranked]): Seq[Int] =
    o.takeWhile(_.od == o.head.od).map(_.group).sorted

  test("odSmallest, rank and assign equal the collection formulation") {
    // `order` against a sort of every group, its first OD and (OD, WD) tiers
    // against `odSmallest` and `rank`, and `assign`. Pivot ids from a
    // universe of 8 and up to 8 centroids, repeats allowed: OD ties, WD ties
    // (a repeated centroid, or two covering the same pivots of rs), the G₀
    // fall-back and the empty centroid list all occur.
    val inputs = for {
      m <- Gen.choose(1, 4)
      centroids <- Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.pick(m, 0 until 8)))
      set <- Gen.pick(m, 0 until 8)
      shuffle <- Gen.long
      rs = new scala.util.Random(shuffle).shuffle(set.toList)
      decay <- Gen.oneOf[Decay](ExpDecay(0.5), ExpDecay(0.9))
      id <- Gen.long
    } yield (centroids.map(_.sorted.toArray).toIndexedSeq, rs.toArray, decay, id)
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1000),
      Prop.forAll(inputs) { case (cs, rs, decay, id) =>
        val ri = rs.sorted
        val order = GroupAssign.order(rs, ri, cs, decay)
        order.map(r => (r.group, r.od, r.wd)) == Reference.order(rs, ri, cs, decay) &&
          odCut(order) == Reference.odSmallest(ri, cs) &&
          rankCut(order) == Reference.rank(rs, ri, cs, decay) &&
          GroupAssign.assign(id, rs, ri, cs, decay) == Reference.assign(id, rs, ri, cs, decay)
      })
    assert(res.passed, res.status.toString)
  }

  test("a centroid that is a superset-overlap beats a partial overlap") {
    val cs = IndexedSeq(Array(1, 2, 9), Array(1, 2, 3))
    val g = GroupAssign.assign(9L, Array(3, 2, 1), Array(1, 2, 3), cs, decay)
    assert(g == 2) // OD 0 beats OD 1
  }
}
