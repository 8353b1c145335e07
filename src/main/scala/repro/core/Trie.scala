package repro.core

import scala.collection.mutable

/** Group-level trie over rank-sensitive pivot prefixes (§IV-D, Figure 5),
  * plus First-Fit-Decreasing packing of leaf nodes into capacity-bounded
  * physical partitions (Def. 13).
  *
  * A node at depth `d` covers every member of the group whose rank-sensitive
  * signature matches the root-to-node pivot path in its first `d` positions.
  * A node whose (estimated) size exceeds the capacity `c` is split by the
  * members' next pivot; splitting stops when the node fits, when the prefix
  * is exhausted, or when all members share the remaining path.
  */
final case class TrieNode(
    depth: Int,
    size: Long, // estimated number of records (full-dataset scale)
    children: Map[Int, TrieNode], // keyed by the pivot on the edge to the child
    partitions: Array[Int], // all partition ids under this node (leaf: its one partition)
) extends Serializable {
  def isLeaf: Boolean = children.isEmpty

  /** Deepest node reachable by following `rs` from this (root) node. */
  def navigate(rs: Array[Int]): TrieNode = {
    var node = this
    var d = 0
    var continue = true
    while (continue && d < rs.length) {
      node.children.get(rs(d)) match {
        case Some(child) => node = child; d += 1
        case None        => continue = false
      }
    }
    node
  }

  def allNodes: Seq[TrieNode] = this +: children.values.toSeq.flatMap(_.allNodes)
}

object Trie {

  /** Mutable build node. */
  private final class BNode(val depth: Int) {
    var size: Long = 0L
    val members = mutable.ArrayBuffer[(Array[Int], Long)]() // (rs sig, est count)
    val children = mutable.LinkedHashMap[Int, BNode]()
    var partition: Int = -1
  }

  /** Build the trie of one group from its sampled rank-sensitive signatures
    * with estimated (full-scale) counts, splitting nodes larger than
    * `capacity`.
    */
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

  /** First-Fit-Decreasing bin packing (Def. 13): leaves sorted by
    * decreasing size, each placed into the first open partition with room;
    * a leaf larger than the capacity gets its own partition. Returns, per
    * leaf (in input order), its partition index (0-based, local to this
    * group) and the per-partition occupancy.
    */
  def packFfd(sizes: Seq[Long], capacity: Long): (Array[Int], Array[Long]) = {
    val order = sizes.zipWithIndex.sortBy { case (s, i) => (-s, i) }
    val occ = mutable.ArrayBuffer[Long]()
    val assign = new Array[Int](sizes.length)
    for ((s, i) <- order) {
      val fit = occ.indices.find(b => occ(b) + s <= capacity)
      fit match {
        case Some(b) => occ(b) += s; assign(i) = b
        case None    => occ += s; assign(i) = occ.size - 1
      }
    }
    (assign, occ.toArray)
  }

  /** Frozen trie of one group: (root, localPartitionOccupancies).
    * `partitionBase` is the global id of this group's first partition.
    */
  def build(sigs: Seq[(Array[Int], Long)], capacity: Long,
            partitionBase: Int): (TrieNode, Array[Long]) = {
    val root = buildMutable(sigs, capacity)
    def leavesOf(n: BNode): Seq[BNode] =
      if (n.children.isEmpty) Seq(n) else n.children.values.toSeq.flatMap(leavesOf)
    val leaves = leavesOf(root)
    val (assign, occ) = packFfd(leaves.map(_.size), capacity)
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
