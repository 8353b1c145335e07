package repro.isax

import scala.annotation.tailrec

import org.apache.spark.sql.{DataFrame, SparkSession}

/** DPiSAX baseline [65]: massively distributed *partitioned* iSAX.
  *
  * DPiSAX samples the data, builds a balanced partitioning table over the
  * iSAX word space by repeatedly splitting overfull regions on the next bit
  * of a single segment (choosing the segment whose bit split is the most
  * balanced — the partitioning is load-driven, not similarity-driven), and
  * routes both records and queries through that binary split tree to
  * exactly one partition. The balance-first, one-bit-at-a-time splitting is
  * what the paper blames for its very low recall (§I, §III-B).
  */
object DpiSax {

  sealed trait Node extends Serializable
  final case class Leaf(part: Int, size: Long) extends Node
  /** Test bit `bit` (0 = MSB) of segment `segment`'s full-precision symbol. */
  final case class Split(segment: Int, bit: Int, zero: Node, one: Node) extends Node

  final case class Router(root: Node, bits: Int, numPartitions: Int) extends WordRouter {
    def route(word: Array[Int]): Int = descend(root, word)

    @tailrec private def descend(n: Node, word: Array[Int]): Int = n match {
      case Leaf(p, _) => p
      case Split(s, b, z, o) => descend(if (((word(s) >>> (bits - 1 - b)) & 1) == 0) z else o, word)
    }
  }

  /** Build the split tree from sampled (word, estimated-count) pairs. */
  def mkRouter(capacity: Long)(words: Seq[(Array[Int], Long)]): Router = {
    val bits = BaselineCommon.Bits
    var nextPart = 0
    def bitOf(sym: Int, b: Int): Int = (sym >>> (bits - 1 - b)) & 1

    def build(members: Seq[(Array[Int], Long)], bitsUsed: Array[Int]): Node = {
      val size = members.map(_._2).sum
      val splittable = bitsUsed.indices.filter(bitsUsed(_) < bits)
      if (size <= capacity || members.size <= 1 || splittable.isEmpty) {
        val p = nextPart; nextPart += 1
        Leaf(p, size)
      } else {
        // Pick the segment whose next bit splits this region most evenly.
        val best = splittable.minBy { s =>
          val ones = members.collect { case (w, f) if bitOf(w(s), bitsUsed(s)) == 1 => f }.sum
          (math.abs(size - 2 * ones), s)
        }
        val b = bitsUsed(best)
        val (zeros, ones) = members.partition { case (w, _) => bitOf(w(best), b) == 0 }
        val used = bitsUsed.clone(); used(best) = b + 1
        // A degenerate split only consumes the bit and retries deeper.
        if (zeros.isEmpty || ones.isEmpty) build(members, used)
        else Split(best, b, build(zeros, used), build(ones, used))
      }
    }
    val root = build(words, new Array[Int](words.headOption.map(_._1.length).getOrElse(0)))
    Router(root, bits, nextPart)
  }

  /** Index `df` on iSAX words of `BaselineCommon.PaaW` segments at
    * `2^BaselineCommon.Bits` cardinality.
    */
  def index(spark: SparkSession, df: DataFrame, capacity: Long, alpha: Double = 0.1,
            seed: Long = 11): BaselineIndex =
    BaselineCommon.index(spark, df, "DPiSAX", alpha, seed, mkRouter(capacity))
}
