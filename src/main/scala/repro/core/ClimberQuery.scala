package repro.core

import org.apache.spark.sql.DataFrame
import repro.scan.Dss

/** CLIMBER query processing (§VI): one ranked list of candidate trie nodes
  * (`ranked`) cut three ways — Algorithm 3 (CLIMBER-kNN) takes its head, the
  * adaptive variations (2X/4X partition caps) walk down it, the OD-Smallest
  * ablation takes its smallest-OD groups — and the localized ED re-ranking
  * within the identified partitions.
  */
object ClimberQuery {

  /** The three query variations evaluated in §VII plus the ablation. */
  sealed trait Variant { def label: String }
  case object Knn extends Variant { val label = "CLIMBER-kNN" }
  final case class Adaptive(factor: Int) extends Variant { val label = s"CLIMBER-kNN-Adaptive-${factor}X" }
  case object OdSmallest extends Variant { val label = "OD-Smallest" }

  /** Result of skeleton navigation: the partitions to load. */
  final case class QueryPlan(groupIds: Seq[Int], nodeDepth: Int, nodeSize: Long,
                             partitions: Array[Int])

  /** One entry of `ranked`: a group, its OD and WD to the query, and one of
    * its two best-matching trie nodes.
    */
  private[core] final case class Candidate(group: Group, od: Int, wd: Double, node: TrieNode)

  /** Algorithm 3 over every group, the one list behind all variants: for
    * each group of `GroupAssign.order`, its deepest navigated trie node and
    * that node's parent (the "longest and 2nd-longest best matches"), by
    * (OD, WD, longest path, largest node, group id) — lines 5-17.
    */
  private[core] def ranked(skeleton: IndexSkeleton, rs: Array[Int],
                           ri: Array[Int]): IndexedSeq[Candidate] =
    GroupAssign.order(rs, ri, skeleton.centroids, skeleton.decay).flatMap { r =>
      val g = skeleton.groups(r.group)
      val deepest = g.root.navigate(rs)
      val nodes =
        if (deepest.depth == 0) Seq(deepest)
        else Seq(deepest, g.root.navigate(rs.take(deepest.depth - 1)))
      nodes.map(Candidate(g, r.od, r.wd, _))
    }.sortBy(c => (c.od, c.wd, -c.node.depth, -c.node.size, c.group.id))

  /** Algorithm 3 (CLIMBER-kNN), CLIMBER-kNN-Adaptive and OD-Smallest, each a
    * cut of `ranked`.
    */
  def plan(skeleton: IndexSkeleton, rs: Array[Int], ri: Array[Int], k: Int, variant: Variant,
           querySeed: Long = 0): QueryPlan = {
    val cands = ranked(skeleton, rs, ri)
    variant match {
      case Knn              => nodePlan(head(cands, querySeed))
      case Adaptive(factor) => adaptive(cands, head(cands, querySeed), k, factor)
      case OdSmallest =>
        // §VII-C, Fig. 11(b): every partition of every group at the smallest
        // OD (stop at line 6 of Algorithm 3).
        val tied = cands.takeWhile(_.od == cands.head.od).map(_.group.id).distinct.sorted
          .map(skeleton.groups(_))
        QueryPlan(tied.map(_.id), 0, tied.map(_.root.size).sum,
          tied.flatMap(_.root.partitions).distinct.sorted.toArray)
    }
  }

  /** Lines 18-19: the head candidate, or, when others tie with it on (OD, WD,
    * depth, size), a random pick among them deterministic in the query seed.
    * The tied candidates are all deepest nodes, in ascending group id.
    */
  private def head(cands: IndexedSeq[Candidate], querySeed: Long): Candidate = {
    val h = cands.head
    val tied = cands.takeWhile(c => c.od == h.od && c.wd == h.wd &&
      c.node.depth == h.node.depth && c.node.size == h.node.size)
    if (tied.size == 1) h else SplitMix.pick(querySeed, tied)
  }

  private def nodePlan(c: Candidate): QueryPlan =
    QueryPlan(Seq(c.group.id), c.node.depth, c.node.size, c.node.partitions)

  /** CLIMBER-kNN-Adaptive (§VI): when the best node holds fewer than `k`
    * candidates, walk down `cands`, over the best groups' nodes and then the
    * next groups', adding each node's partitions until the estimated
    * candidate count covers `k`, capped at `factor ×` the base plan's
    * partition count.
    */
  private def adaptive(cands: IndexedSeq[Candidate], base: Candidate, k: Int,
                       factor: Int): QueryPlan = {
    if (base.node.size >= k) return nodePlan(base)
    val maxParts = math.max(1, factor * base.node.partitions.length)
    val partsSet = scala.collection.mutable.LinkedHashSet[Int](base.node.partitions.toSeq: _*)
    val groups = scala.collection.mutable.LinkedHashSet[Int](base.group.id)
    var covered = base.node.size
    val it = cands.iterator
    while (covered < k && it.hasNext && partsSet.size < maxParts) {
      val c = it.next()
      val fresh = c.node.partitions.filterNot(partsSet.contains)
      if (fresh.nonEmpty && partsSet.size + fresh.length <= maxParts) {
        partsSet ++= fresh
        groups += c.group.id
        covered += c.node.size
      }
    }
    QueryPlan(groups.toSeq, base.node.depth, base.node.size, partsSet.toArray)
  }

  /** Plan for a raw query series under the requested variant. */
  def planFor(index: ClimberIndex, query: Array[Double], k: Int, variant: Variant,
              querySeed: Long = 0): QueryPlan = {
    val (rs, ri) = index.pivots.dual(Paa.of(query, index.params.paaW))
    plan(index.skeleton, rs, ri, k, variant, querySeed)
  }

  /** Localized record-level similarity (§VI): load the identified
    * partitions, ED-rank their records against the query, return the top-K
    * (id, distance) pairs with a deterministic (distance, id) order.
    * When the planned partitions hold fewer than `k` rows, the result is
    * short: every one of those rows, closest first.
    *
    * `data` must be laid out one Spark partition per index partition (Spark
    * partition id = `part`, as `ClimberIndex.build` and
    * `BaselineCommon.index` lay it out): only the planned partitions are
    * read, one Spark task each. A partition id outside the data's partitions
    * is rejected, and a row found in the wrong partition fails the scan.
    * `partCol` must be `"part"`, the one layout column `Dss.topK` checks.
    */
  def scanTopK(data: DataFrame, partCol: String, partitions: Array[Int],
               query: Array[Double], k: Int): Seq[(Long, Double)] = {
    require(partCol == "part", s"the layout column is part, not $partCol")
    Dss.topK(data, partitions.distinct.toSeq, Array(query), k).head
  }

  /** End-to-end approximate kNN under a variant. */
  def knn(index: ClimberIndex, query: Array[Double], k: Int, variant: Variant,
          querySeed: Long = 0): Seq[(Long, Double)] = {
    val p = planFor(index, query, k, variant, querySeed)
    scanTopK(index.data, "part", p.partitions, query, k)
  }
}
