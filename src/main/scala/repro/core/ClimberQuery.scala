package repro.core

import org.apache.spark.sql.DataFrame
import repro.scan.Dss

/** CLIMBER query processing (§VI): Algorithm 3 (CLIMBER-kNN), the adaptive
  * variations (2X/4X partition caps), the OD-Smallest ablation, and the
  * localized ED re-ranking within the identified partitions.
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

  /** Lines 5-9 of Algorithm 3: Algorithm 1's group ranking of the query. */
  private def ranked(skeleton: IndexSkeleton, rs: Array[Int], ri: Array[Int]): Seq[Group] =
    GroupAssign.rank(rs, ri, skeleton.centroids, skeleton.decay).map(skeleton.groups(_))

  /** Algorithm 3: pick the single best (group, trie node) and return its
    * physical partitions.
    */
  def plan(skeleton: IndexSkeleton, rs: Array[Int], ri: Array[Int],
           querySeed: Long = 0): QueryPlan =
    planRanked(ranked(skeleton, rs, ri), rs, querySeed)

  private def planRanked(cands: Seq[Group], rs: Array[Int], querySeed: Long): QueryPlan = {
    val navigated = cands.map(g => (g, g.root.navigate(rs)))
    // Lines 14-17: longest path, then largest node.
    val maxDepth = navigated.map(_._2.depth).max
    val deepest = navigated.filter(_._2.depth == maxDepth)
    val maxSize = deepest.map(_._2.size).max
    val biggest = deepest.filter(_._2.size == maxSize)
    // Lines 18-19: random (deterministic in the query seed) final tie-break.
    val (g, node) = if (biggest.size == 1) biggest.head else SplitMix.pick(querySeed, biggest)
    QueryPlan(Seq(g.id), node.depth, node.size, node.partitions)
  }

  /** CLIMBER-kNN-Adaptive (§VI): when the best node holds fewer than `k`
    * candidates, expand over further best-matching trie nodes (the deepest
    * node of every tied group plus its parent — the "longest and 2nd-longest
    * best matches") until the estimated candidate count covers `k`, capped
    * at `factor ×` the base plan's partition count.
    */
  def planAdaptive(skeleton: IndexSkeleton, rs: Array[Int], ri: Array[Int],
                   k: Int, factor: Int, querySeed: Long = 0): QueryPlan = {
    val cands = ranked(skeleton, rs, ri)
    val base = planRanked(cands, rs, querySeed)
    if (base.nodeSize >= k) return base
    val maxParts = math.max(1, factor * base.partitions.length)
    val nodes = cands.flatMap { g =>
      val deepest = g.root.navigate(rs)
      val second =
        if (deepest.depth >= 1) Some(g.root.navigate(rs.take(deepest.depth - 1))) else None
      (Seq((g, deepest)) ++ second.map(n => (g, n))).distinct
    }.distinct.sortBy { case (g, n) => (-n.depth, -n.size, g.id) }
    val partsSet = scala.collection.mutable.LinkedHashSet[Int](base.partitions.toSeq: _*)
    val groups = scala.collection.mutable.LinkedHashSet[Int](base.groupIds: _*)
    var covered = base.nodeSize
    val it = nodes.iterator
    while (covered < k && it.hasNext && partsSet.size < maxParts) {
      val (g, n) = it.next()
      val fresh = n.partitions.filterNot(partsSet.contains)
      if (fresh.nonEmpty && partsSet.size + fresh.length <= maxParts) {
        partsSet ++= fresh
        groups += g.id
        covered += n.size
      }
    }
    QueryPlan(groups.toSeq, base.nodeDepth, base.nodeSize, partsSet.toArray)
  }

  /** OD-Smallest ablation (§VII-C, Fig. 11(b)): scan every partition of
    * every group whose OD to the query is the smallest (stop at line 6 of
    * Algorithm 3).
    */
  def planOdSmallest(skeleton: IndexSkeleton, ri: Array[Int]): QueryPlan = {
    val tied = GroupAssign.odSmallest(ri, skeleton.centroids).map(skeleton.groups(_))
    val parts = tied.flatMap(_.root.partitions).distinct.sorted.toArray
    QueryPlan(tied.map(_.id), 0, tied.map(_.root.size).sum, parts)
  }

  /** Plan for a raw query series under the requested variant. */
  def planFor(index: ClimberIndex, query: Array[Double], k: Int, variant: Variant,
              querySeed: Long = 0): QueryPlan = {
    val paa = Paa.of(query, index.params.paaW)
    val (rs, ri) = index.pivots.dual(paa)
    variant match {
      case Knn              => plan(index.skeleton, rs, ri, querySeed)
      case Adaptive(factor) => planAdaptive(index.skeleton, rs, ri, k, factor, querySeed)
      case OdSmallest       => planOdSmallest(index.skeleton, ri)
    }
  }

  /** Localized record-level similarity (§VI): load the identified
    * partitions, ED-rank their records against the query, return the top-K
    * (id, distance) pairs with a deterministic (distance, id) order.
    * When the planned partitions hold fewer than `k` rows, the result is
    * short: every one of those rows, closest first.
    *
    * `data` must be laid out one Spark partition per index partition (Spark
    * partition id = `partCol`, as `ClimberIndex.build` and
    * `BaselineCommon.index` lay it out): only the planned partitions are
    * read, one Spark task each. A partition id outside the data's partitions
    * is rejected, and a row found in the wrong partition fails the scan.
    */
  def scanTopK(data: DataFrame, partCol: String, partitions: Array[Int],
               query: Array[Double], k: Int): Seq[(Long, Double)] = {
    val numPartitions = data.queryExecution.toRdd.getNumPartitions
    partitions.find(p => p < 0 || p >= numPartitions).foreach(p =>
      throw new IllegalArgumentException(s"partition $p outside [0, $numPartitions)"))
    Dss.topK(data, Some(partCol), partitions.distinct.toSeq, Array(query), k).head
  }

  /** End-to-end approximate kNN under a variant. */
  def knn(index: ClimberIndex, query: Array[Double], k: Int, variant: Variant,
          querySeed: Long = 0): Seq[(Long, Double)] = {
    val p = planFor(index, query, k, variant, querySeed)
    scanTopK(index.data, "part", p.partitions, query, k)
  }
}
