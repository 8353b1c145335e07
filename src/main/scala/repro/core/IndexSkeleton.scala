package repro.core

import repro.core.Centroids.SigFreq
import repro.core.Distances.Decay

/** One data series group (1st index level, §IV-C) with its trie (2nd level,
  * §IV-D). `id` 0 is the special fall-back group G₀ (empty centroid).
  */
final case class Group(
    id: Int,
    centroid: Array[Int], // rank-insensitive signature; empty for G₀
    root: TrieNode,
    defaultPartition: Int, // smallest-occupancy partition of the group (§V Step 3)
) extends Serializable

/** CLIMBER-INX index skeleton (Figure 5): the groups list, the forest of
  * tries, and the global partition count. Tiny; broadcast to every task for
  * Step 4 and kept on the driver for query planning.
  */
final case class IndexSkeleton(
    groups: IndexedSeq[Group], // groups(0) is G₀; groups(i).id == i
    numPartitions: Int,
    decay: Decay,
) extends Serializable {

  /** Centroids of the non-fallback groups, indexed for Algorithm 1. */
  @transient lazy val centroids: IndexedSeq[Array[Int]] = groups.drop(1).map(_.centroid)

  /** Step-4 placement: (groupId, partitionId) of a record with P⁴→ `rs`,
    * by the same rule that sized the tries in Step 3. A record that cannot
    * navigate a complete root-to-leaf path in its group's trie goes to the
    * group's default partition (§V Step 3).
    */
  def place(rs: Array[Int]): (Int, Int) = {
    val g = IndexSkeleton.groupOf(rs, centroids, decay)
    val group = groups(g)
    val node = group.root.navigate(rs)
    val part = if (node.isLeaf) node.partitions(0) else group.defaultPartition
    (g, part)
  }
}

object IndexSkeleton {

  /** Algorithm 1 keyed on the P⁴→: Steps 3 and 4 both assign through here. */
  private def groupOf(rs: Array[Int], centroids: IndexedSeq[Array[Int]], decay: Decay): Int =
    GroupAssign.assign(java.util.Arrays.hashCode(rs).toLong, rs, PivotSet.rankInsensitive(rs),
      centroids, decay)

  /** Build the skeleton from the frequency-aggregated sample signatures
    * (Steps 2-3 of Figure 6).
    *
    * @param riAgg  aggregated rank-insensitive signatures [(P⁴⇉, freq)]
    * @param rsAgg  aggregated rank-sensitive signatures  [(P⁴→, freq)]
    * @param alpha  sample fraction α ∈ (0, 1]
    * @param capacity partition capacity c in records (full-dataset scale)
    * @param epsilon  minimum Overlap Distance between centroids
    */
  def build(riAgg: Seq[SigFreq], rsAgg: Seq[SigFreq], alpha: Double,
            capacity: Long, epsilon: Int, decay: Decay,
            maxCentroids: Int = Int.MaxValue): IndexSkeleton = {
    val centroids = Centroids.compute(riAgg, alpha, capacity, epsilon, maxCentroids)

    // Step 3: assign the sampled rank-sensitive signatures to the centroids.
    val byGroup = rsAgg.groupBy(sf => groupOf(sf.sig, centroids, decay))

    // Scale sampled frequencies to full-dataset estimates, build each
    // group's trie, and pack leaves into globally numbered partitions.
    var partitionBase = 0
    val groups = (0 to centroids.size).map { g =>
      val sigs = byGroup.getOrElse(g, Seq.empty).map { sf =>
        (sf.sig, math.max(1L, math.round(sf.freq / alpha)))
      }
      // Every group owns at least one partition, so unseen data has a home:
      // a trie always has a leaf (a group with no sampled signature is a
      // root leaf of size 0), and FFD packing opens a partition for it.
      val (root, occ) = Trie.build(sigs, capacity, partitionBase)
      val defaultPart = partitionBase + occ.zipWithIndex.minBy { case (o, i) => (o, i) }._2
      val centroid = if (g == 0) Array.empty[Int] else centroids(g - 1)
      val group = Group(g, centroid, root, defaultPart)
      partitionBase += occ.length
      group
    }
    IndexSkeleton(groups, partitionBase, decay)
  }
}
