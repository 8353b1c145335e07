package repro.core

import scala.collection.mutable

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec

class TrieSpec extends SparkSpec {

  private def sig(xs: Int*): Array[Int] = xs.toArray

  /** Each leaf under `n` with its pivot path from `n`. */
  private def leafPaths(n: TrieNode, path: List[Int] = Nil): Seq[(List[Int], TrieNode)] =
    if (n.isLeaf) Seq(path.reverse -> n)
    else n.children.toSeq.flatMap { case (p, c) => leafPaths(c, p :: path) }

  // A Figure-5-like group: total 5250, capacity 3000 forces splitting.
  private val fig5 = Seq(
    (sig(6, 2, 7), 1800L),
    (sig(6, 5, 1), 1900L),
    (sig(4, 6, 7), 900L),
    (sig(7, 6, 4), 650L),
  )

  test("a group within capacity stays a single leaf (Def. 12 last clause)") {
    val (root, occ) = Trie.build(Seq((sig(1, 2, 3), 100L), (sig(4, 5, 6), 50L)), 1000L, 0)
    assert(root.isLeaf)
    assert(root.size == 150L)
    assert(occ.toSeq == Seq(150L))
  }

  test("an overfull group splits by the 1st pivot (Figure 5)") {
    val (root, _) = Trie.build(fig5, 3000L, 0)
    assert(!root.isLeaf)
    assert(root.children.keySet == Set(6, 4, 7))
    assert(root.children(6).size == 3700L)
    assert(root.children(4).size == 900L)
    assert(root.children(7).size == 650L)
  }

  test("an overfull child splits recursively by the 2nd pivot (Figure 5)") {
    val (root, _) = Trie.build(fig5, 3000L, 0)
    val n6 = root.children(6)
    assert(!n6.isLeaf) // 3700 > 3000
    assert(n6.children.keySet == Set(2, 5))
    assert(n6.children(2).size == 1800L)
    assert(n6.children(5).size == 1900L)
    assert(root.children(4).isLeaf && root.children(7).isLeaf)
  }

  test("leaves are disjoint and cover the whole group") {
    val (root, _) = Trie.build(fig5, 3000L, 0)
    val leaves = leafPaths(root)
    assert(leaves.map(_._2.size).sum == 5250L)
    leaves.foreach { case (path, leaf) => assert(path.length == leaf.depth) }
    // Each member's signature extends exactly one root-to-leaf path.
    val paths = leaves.map(_._1)
    fig5.foreach { case (s, _) => assert(paths.count(p => s.startsWith(p)) == 1) }
    assert(paths.forall(a => paths.count(_.startsWith(a)) == 1))
  }

  test("every node's size is the sum of its leaves") {
    val (root, _) = Trie.build(fig5, 3000L, 0)
    root.allNodes.foreach(n => assert(leafPaths(n).map(_._2.size).sum == n.size))
  }

  test("trie depth never exceeds the prefix length") {
    val rng = new java.util.Random(3)
    val sigs = (0 until 300).map { _ =>
      val s = scala.collection.mutable.LinkedHashSet[Int]()
      while (s.size < 4) s += rng.nextInt(8)
      (s.toArray, (1 + rng.nextInt(50)).toLong)
    }
    val (root, _) = Trie.build(sigs, 10L, 0)
    root.allNodes.foreach(n => assert(n.depth <= 4))
  }

  test("navigation follows the longest matching prefix") {
    val (root, _) = Trie.build(fig5, 3000L, 0)
    assert(root.navigate(sig(6, 2, 7)).depth == 2)
    assert(root.navigate(sig(6, 9, 9)).depth == 1) // stops at internal node 6
    assert(root.navigate(sig(4, 1, 1)).depth == 1) // leaf 4
    assert(root.navigate(sig(9, 9, 9)).depth == 0) // no child → root
  }

  test("navigating an internal node returns the union of its subtree partitions") {
    val (root, _) = Trie.build(fig5, 3000L, 0)
    val n6 = root.navigate(sig(6, 9, 9))
    assert(n6.partitions.toSet ==
      (n6.children(2).partitions ++ n6.children(5).partitions).toSet)
  }

  test("leaf partition ids start at the partition base") {
    val (root, occ) = Trie.build(fig5, 3000L, 100)
    leafPaths(root).foreach { case (_, l) =>
      assert(l.partitions.length == 1)
      assert(l.partitions(0) >= 100 && l.partitions(0) < 100 + occ.length)
    }
  }

  test("internal nodes hold the sorted union of their leaves' partitions") {
    val (root, _) = Trie.build(fig5, 3000L, 0)
    root.allNodes.filterNot(_.isLeaf).foreach { n =>
      assert(n.partitions.nonEmpty)
      assert(n.partitions.toSeq == leafPaths(n).flatMap(_._2.partitions).distinct.sorted)
    }
  }

  // ---------------- FFD packing (Def. 13) ----------------

  test("FFD: no partition exceeds capacity when every item fits") {
    val (assign, occ) = Trie.packFfd(Seq(5L, 3L, 2L, 2L, 7L), 10L)
    assert(occ.forall(_ <= 10L))
    assert(assign.length == 5)
  }

  test("FFD: total occupancy equals total input size") {
    val sizes = Seq(5L, 3L, 2L, 2L, 7L, 9L, 1L)
    val (_, occ) = Trie.packFfd(sizes, 10L)
    assert(occ.sum == sizes.sum)
  }

  test("FFD: Figure-5-style packing groups small leaves together") {
    // Leaves 1900, 1800, 900, 650 with capacity 3000:
    // FFD order 1900, 1800, 900, 650 → bins [1900+900+..], [1800+650+..].
    val (assign, occ) = Trie.packFfd(Seq(1800L, 1900L, 900L, 650L), 3000L)
    assert(occ.length == 2)
    assert(occ.forall(_ <= 3000L))
    assert(assign.toSet == Set(0, 1))
  }

  test("FFD: an oversize item gets its own partition") {
    val (assign, occ) = Trie.packFfd(Seq(50L, 5L), 10L)
    assert(occ.length == 2)
    assert(occ.contains(50L))
    assert(assign(0) != assign(1))
  }

  test("FFD: perfectly packable input uses the optimal bin count") {
    val (_, occ) = Trie.packFfd(Seq(6L, 4L, 5L, 5L, 7L, 3L), 10L)
    assert(occ.length == 3) // 30 total / 10 per bin
  }

  test("FFD: bin count is within 1.5x of the volume lower bound") {
    val rng = new java.util.Random(11)
    for (_ <- 1 to 20) {
      val sizes = Seq.fill(40)((1 + rng.nextInt(10)).toLong)
      val (_, occ) = Trie.packFfd(sizes, 10L)
      val lower = math.ceil(sizes.sum / 10.0)
      assert(occ.length <= math.ceil(1.5 * lower) + 1)
    }
  }

  test("FFD: empty input yields no partitions") {
    val (assign, occ) = Trie.packFfd(Seq.empty, 10L)
    assert(assign.isEmpty && occ.isEmpty)
  }

  test("trie with duplicate signatures aggregates them into one path") {
    val sigs = Seq((sig(1, 2, 3), 60L), (sig(1, 2, 3), 60L))
    val (root, _) = Trie.build(sigs, 100L, 0)
    // 120 > 100 → split by pivot 1, then 2, then 3; both members stay together.
    assert(root.navigate(sig(1, 2, 3)).size == 120L)
  }

  // ---------------- the one-pass build against the two-pass reference ----------------

  /** Random groups: one prefix length in 1–4, pivots 0–5 (so prefixes are
    * shared), counts at, around and far from the capacity (so leaf sizes
    * tie and FFD's order among equal leaves matters), a random base.
    */
  private val groups: Gen[(Seq[(Array[Int], Long)], Long, Int)] = for {
    len <- Gen.choose(1, 4)
    capacity <- Gen.choose(2L, 20L)
    n <- Gen.choose(0, 40)
    sigs <- Gen.listOfN(n, for {
      pivots <- Gen.pick(len, 0 to 5)
      shuffle <- Gen.long
      count <- Gen.oneOf(Gen.oneOf(1L, capacity / 2, capacity, capacity + 1, 2 * capacity),
        Gen.choose(1L, 3 * capacity))
    } yield (new scala.util.Random(shuffle).shuffle(pivots.toSeq).toArray, count))
    base <- Gen.choose(0, 1000)
  } yield (sigs, capacity, base)

  private def sameTree(a: TrieNode, b: TrieNode): Boolean =
    a.depth == b.depth && a.size == b.size && a.partitions.sameElements(b.partitions) &&
      a.children.keys.toSeq == b.children.keys.toSeq &&
      a.children.keys.forall(p => sameTree(a.children(p), b.children(p)))

  private def bytes(o: AnyRef): Seq[Byte] = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(o); oos.close()
    bos.toByteArray.toSeq
  }

  test("the one-pass build gives the reference build's trie, partitions and occupancies") {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300),
      Prop.forAllNoShrink(groups) { case (sigs, capacity, base) =>
        val (root, occ) = Trie.build(sigs, capacity, base)
        val (refRoot, refOcc) = TrieSpec.referenceBuild(sigs, capacity, base)
        sameTree(root, refRoot) && occ.sameElements(refOcc) && bytes(root) == bytes(refRoot)
      })
    assert(res.passed, res.status.toString)
  }
}

object TrieSpec {

  /** The earlier two-pass build, kept as the reference: a mutable tree,
    * its leaves packed in the order the tree yields them, then frozen.
    */
  private final class BNode(val depth: Int) {
    var size: Long = 0L
    val members = mutable.ArrayBuffer[(Array[Int], Long)]() // (rs sig, est count)
    val children = mutable.LinkedHashMap[Int, BNode]()
    var partition: Int = -1
  }

  private def buildMutable(sigs: Seq[(Array[Int], Long)], capacity: Long): BNode = {
    val root = new BNode(0)
    root.members ++= sigs
    root.size = sigs.map(_._2).sum
    def split(node: BNode): Unit = {
      if (node.size <= capacity || node.depth >= sigs.headOption.map(_._1.length).getOrElse(0))
        return
      val byPivot = node.members.groupBy { case (sig, _) => sig(node.depth) }
      if (byPivot.isEmpty) return
      for ((p, mem) <- byPivot.toSeq.sortBy(_._1)) {
        val c = new BNode(node.depth + 1)
        c.members ++= mem
        c.size = mem.map(_._2).sum
        node.children(p) = c
        split(c)
      }
      node.members.clear() // members now live in the children
    }
    split(root)
    root
  }

  def referenceBuild(sigs: Seq[(Array[Int], Long)], capacity: Long,
                     partitionBase: Int): (TrieNode, Array[Long]) = {
    val root = buildMutable(sigs, capacity)
    def leavesOf(n: BNode): Seq[BNode] =
      if (n.children.isEmpty) Seq(n) else n.children.values.toSeq.flatMap(leavesOf)
    val leaves = leavesOf(root)
    val (assign, occ) = Trie.packFfd(leaves.map(_.size), capacity)
    leaves.zipWithIndex.foreach { case (leaf, i) => leaf.partition = partitionBase + assign(i) }
    def freeze(n: BNode): TrieNode = {
      val kids = n.children.toSeq.map { case (p, c) => p -> freeze(c) }.toMap
      val parts: Array[Int] =
        if (n.children.isEmpty) Array(n.partition)
        else kids.values.flatMap(_.partitions).toArray.distinct.sorted
      TrieNode(n.depth, n.size, kids, parts)
    }
    (freeze(root), occ)
  }
}
