package repro.core

import repro.SparkSpec
import repro.core.Centroids.SigFreq
import repro.core.Distances.ExpDecay

class IndexSkeletonSpec extends SparkSpec {

  private val decay = ExpDecay(0.5)

  /** Two clearly separated clusters of sample signatures. */
  private def twoClusterAgg: (Seq[SigFreq], Seq[SigFreq]) = {
    val rsAgg = Seq(
      SigFreq(Array(1, 2, 3), 40), SigFreq(Array(2, 1, 3), 30), SigFreq(Array(3, 2, 1), 20),
      SigFreq(Array(7, 8, 9), 35), SigFreq(Array(8, 7, 9), 25), SigFreq(Array(9, 8, 7), 15),
    )
    val riAgg = Seq(SigFreq(Array(1, 2, 3), 90), SigFreq(Array(7, 8, 9), 75))
    (riAgg, rsAgg)
  }

  test("skeleton has G0 plus one group per centroid") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, alpha = 1.0, capacity = 60, epsilon = 2, decay = decay)
    assert(sk.groups.size == 3)
    assert(sk.groups.head.id == 0 && sk.groups.head.centroid.isEmpty)
    assert(sk.groups.map(_.id) == (0 until 3))
  }

  test("group ids match centroid order and centroids are the cluster signatures") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, 1.0, 60, 2, decay)
    assert(sk.centroids.map(_.toSeq).toSet == Set(Seq(1, 2, 3), Seq(7, 8, 9)))
  }

  test("every group owns at least one partition and ids are globally unique") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, 1.0, 50, 2, decay)
    val all = sk.groups.flatMap(_.root.partitions)
    assert(all.distinct.size == all.size)
    assert(sk.groups.forall(_.root.partitions.nonEmpty))
    assert(all.forall(p => p >= 0 && p < sk.numPartitions))
  }

  test("default partition belongs to the group's own partitions") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, 1.0, 50, 2, decay)
    sk.groups.foreach(g => assert(g.root.partitions.contains(g.defaultPartition)))
  }

  test("placement routes a clustered record to its cluster's group") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, 1.0, 60, 2, decay)
    val gA = sk.groups.find(_.centroid.toSeq == Seq(1, 2, 3)).get.id
    val gB = sk.groups.find(_.centroid.toSeq == Seq(7, 8, 9)).get.id
    assert(sk.place(Array(2, 3, 1))._1 == gA)
    assert(sk.place(Array(9, 7, 8))._1 == gB)
  }

  test("placement of an unseen signature with zero overlap goes to G0") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, 1.0, 60, 2, decay)
    val (g, p) = sk.place(Array(20, 21, 22))
    assert(g == 0)
    assert(sk.groups(0).root.partitions.contains(p))
  }

  test("placement partition is always one of the group's partitions") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, 1.0, 40, 2, decay)
    val rng = new java.util.Random(4)
    for (_ <- 0 until 200) {
      val rsSig = Array.fill(3)(1 + rng.nextInt(9)).distinct
      if (rsSig.length == 3) {
        val (g, p) = sk.place(rsSig)
        assert(sk.groups(g).root.partitions.contains(p))
      }
    }
  }

  test("a record that cannot reach a leaf goes to the default partition") {
    // One group whose trie splits on pivot 1 vs 4 at depth 1; a member with
    // first pivot 6 stops at the root (internal) → default partition.
    val ri = Seq(SigFreq(Array(1, 2, 3), 100), SigFreq(Array(3, 4, 5), 100))
    val rs = Seq(SigFreq(Array(1, 2, 3), 100), SigFreq(Array(4, 3, 5), 100))
    val sk = IndexSkeleton.build(ri, rs, 1.0, 150, 0, decay)
    val g = sk.groups.find(_.root.children.nonEmpty)
    assume(g.isDefined, "expected at least one split trie")
    val grp = g.get
    val (gid, p) = sk.place(Array(6, 2, 3))
    if (gid == grp.id && grp.root.children.get(6).isEmpty)
      assert(p == grp.defaultPartition)
  }

  test("Step 4 places every sampled P⁴→ where Step 3 sized it, OD/WD ties included") {
    // Centroids <1,2,3> and <1,4,5>. Each tied signature <1, x+1, x> shares
    // only pivot 1, in first position, with both: equal OD and equal WD, so
    // Algorithm 1's random pick decides. It is not sorted, so P⁴→ and P⁴⇉
    // differ as pick keys.
    val tied = (0 until 40).map(i => SigFreq(Array(1, 11 + 2 * i, 10 + 2 * i), 3))
    val rsAgg = SigFreq(Array(1, 2, 3), 100) +: SigFreq(Array(1, 4, 5), 90) +: tied
    val alpha = 0.4
    val sk = IndexSkeleton.build(PivotSet.rankInsensitiveAgg(rsAgg), rsAgg, alpha,
      capacity = 150, epsilon = 2, decay = decay)
    assert(sk.centroids.map(_.toSeq) == IndexedSeq(Seq(1, 2, 3), Seq(1, 4, 5)))
    val placed = rsAgg.map(sf => sf -> sk.place(sf.sig))
    // The ties split between the two groups, so no fixed pick passes.
    assert(tied.map(sf => sk.place(sf.sig)._1).toSet == Set(1, 2))
    placed.foreach { case (sf, (g, p)) =>
      val node = sk.groups(g).root.navigate(sf.sig)
      assert(node.isLeaf, s"${sf.sig.toSeq} stops at an internal node of group $g")
      assert(node.partitions.toSeq == Seq(p))
    }
    sk.groups.foreach { grp =>
      val budget = placed.collect { case (sf, (g, _)) if g == grp.id =>
        math.max(1L, math.round(sf.freq / alpha))
      }.sum
      assert(grp.root.size == budget, s"group ${grp.id}")
    }
  }

  test("sampled frequencies are scaled by 1/α in node size estimates") {
    val ri = Seq(SigFreq(Array(1, 2, 3), 10))
    val rs = Seq(SigFreq(Array(1, 2, 3), 10))
    val sk = IndexSkeleton.build(ri, rs, alpha = 0.1, capacity = 1000, epsilon = 1, decay = decay)
    val g = sk.groups.find(_.centroid.nonEmpty).get
    assert(g.root.size == 100L)
  }

  test("skeleton is Java-serialisable (needed for broadcast)") {
    val (ri, rs) = twoClusterAgg
    val sk = IndexSkeleton.build(ri, rs, 1.0, 50, 2, decay)
    val bytes = ClimberIndex.serializedBytes(sk)
    assert(bytes > 0)
  }

  test("empty sample yields a skeleton with only G0") {
    val sk = IndexSkeleton.build(Seq.empty, Seq.empty, 1.0, 100, 1, decay)
    assert(sk.groups.size == 1)
    assert(sk.place(Array(1, 2, 3)) == ((0, sk.groups(0).defaultPartition)))
  }
}
