package repro.isax

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.math.Ordering.Implicits.seqOrdering

/** TARDIS baseline [67]: distributed iSAX indexing with a sigTree.
  *
  * The sigTree is a wide n-ary tree over iSAX words: a node at level `b`
  * groups all series sharing the same word at cardinality `2^b` (every
  * segment promoted to `b` bits); an overfull node is refined by adding one
  * bit to *all* segments (fanout up to `2^w` distinct present children).
  * Records and queries descend root-to-leaf; a missing child routes to the
  * nearest present child in symbol space, so the query always lands in
  * exactly one leaf partition.
  */
object Tardis {

  final case class Node(
      bits: Int,
      size: Long,
      part: Int, // leaf partition id; -1 for internal nodes
      children: Map[Vector[Int], Node],
  ) extends Serializable {
    def isLeaf: Boolean = children.isEmpty
  }

  final case class Router(root: Node, bits: Int, numPartitions: Int) extends WordRouter {
    /** Promote a full-precision word to `b` bits per segment. */
    private def key(word: Array[Int], b: Int): Vector[Int] =
      word.map(Isax.promote(_, bits, b)).toVector

    def route(word: Array[Int]): Int = {
      var n = root
      while (!n.isLeaf) {
        val k = key(word, n.bits + 1)
        n = n.children.getOrElse(k, nearestChild(n, k))
      }
      n.part
    }

    /** Closest present child by L1 distance in symbol space (deterministic
      * lexicographic tie-break).
      */
    private def nearestChild(n: Node, k: Vector[Int]): Node = {
      val (bestKey, _) = n.children.keys
        .map(ck => (ck, ck.zip(k).map { case (a, b) => math.abs(a - b).toLong }.sum))
        .minBy { case (ck, d) => (d, ck) }
      n.children(bestKey)
    }
  }

  /** Build the sigTree from sampled (word, estimated-count) pairs, then
    * pack the leaves into capacity-bounded physical partitions in DFS
    * (word) order — TARDIS stores many small sibling leaves per HDFS
    * partition, so a query's single partition holds the leaf's whole
    * symbol-space neighborhood, not just its own tiny leaf.
    */
  def mkRouter(capacity: Long)(words: Seq[(Array[Int], Long)]): Router = {
    val bits = BaselineCommon.Bits
    def build(members: Seq[(Array[Int], Long)], b: Int): Node = {
      val size = members.map(_._2).sum
      if (size <= capacity || b >= bits || members.size <= 1) {
        Node(b, size, -1, Map.empty)
      } else {
        val byKey = members.groupBy { case (w, _) => w.map(Isax.promote(_, bits, b + 1)).toVector }
        // A single-key refinement still descends (b strictly increases, so
        // this terminates at full cardinality at the latest).
        val kids = byKey.map { case (k, mem) => k -> build(mem, b + 1) }
        Node(b, size, -1, kids)
      }
    }
    val root = build(words, 0)
    // Next-fit packing in DFS order keeps adjacent word regions together.
    var cur = 0
    var curSize = 0L
    def pack(n: Node): Node =
      if (n.isLeaf) {
        if (curSize > 0 && curSize + n.size > capacity) { cur += 1; curSize = 0L }
        curSize += n.size
        n.copy(part = cur)
      } else n.copy(children = n.children.toSeq.sortBy(_._1).map { case (k, c) => k -> pack(c) }.toMap)
    val packed = pack(root)
    Router(packed, bits, cur + 1)
  }

  /** Index `df` on the same iSAX words as DPiSAX. */
  def index(spark: SparkSession, df: DataFrame, capacity: Long, alpha: Double = 0.1,
            seed: Long = 13): BaselineIndex =
    BaselineCommon.index(spark, df, "TARDIS", alpha, seed, mkRouter(capacity))
}
