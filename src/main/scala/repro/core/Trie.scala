package repro.core

import scala.collection.mutable

/** Group-level trie over rank-sensitive pivot prefixes (§IV-D, Figure 5),
  * plus First-Fit-Decreasing packing of leaf nodes into capacity-bounded
  * physical partitions (Def. 13).
  *
  * A node at depth `d` covers every member of the group whose rank-sensitive
  * signature matches the root-to-node pivot path in its first `d` positions.
  * A node whose (estimated) size exceeds the capacity `c` is split by the
  * members' next pivot; splitting stops when the node fits or the prefix is
  * exhausted.
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

  /** The trie of one group and its local partition occupancies, from the
    * group's sampled P⁴→ signatures with estimated (full-scale) counts: one
    * split with children in ascending pivot order, FFD over the leaves
    * numbered depth-first in that order, and the leaves' partitions offset
    * by `partitionBase`, the global id of the group's first partition.
    */
  def build(sigs: Seq[(Array[Int], Long)], capacity: Long,
            partitionBase: Int): (TrieNode, Array[Long]) = {
    val prefixLen = sigs.headOption.fold(0)(_._1.length)
    val leafSizes = mutable.ArrayBuffer[Long]()
    // A leaf holds its depth-first number until the packing is known.
    def split(members: Seq[(Array[Int], Long)], depth: Int): TrieNode = {
      val size = members.map(_._2).sum
      if (size <= capacity || depth >= prefixLen) {
        leafSizes += size
        TrieNode(depth, size, Map.empty, Array(leafSizes.size - 1))
      } else {
        val kids = members.groupBy(_._1(depth)).toSeq.sortBy(_._1)
          .map { case (p, mem) => p -> split(mem, depth + 1) }
        TrieNode(depth, size, kids.toMap, Array.empty)
      }
    }
    val numbered = split(sigs, 0)
    val (assign, occ) = packFfd(leafSizes.toSeq, capacity)
    def place(n: TrieNode): TrieNode =
      if (n.isLeaf) n.copy(partitions = Array(partitionBase + assign(n.partitions(0))))
      else {
        val kids = n.children.map { case (p, c) => p -> place(c) }
        n.copy(children = kids, partitions = kids.values.flatMap(_.partitions).toArray.distinct.sorted)
      }
    (place(numbered), occ)
  }
}
