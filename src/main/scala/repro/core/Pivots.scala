package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Centroids.SigFreq

/** Pivot set and P⁴ dual signature generation (CLIMBER-FX Step 2, §IV-B).
  *
  * Pivots are `r` PAA vectors selected uniformly at random from a sample of
  * the data (the paper opts for random selection, §V Step 1). Given the
  * pivots, a PAA vector's rank-sensitive signature `P⁴→` is the ordered list
  * of the ids of its `m` nearest pivots (ties broken by pivot id for
  * determinism), and the rank-insensitive `P⁴⇉` is the same set sorted by id.
  */
final case class PivotSet(vectors: Array[Array[Double]], prefixLen: Int) extends Serializable {
  require(prefixLen >= 1 && prefixLen <= vectors.length,
    s"prefix length $prefixLen must be in [1, ${vectors.length}]")
  require(vectors.forall(_.length == vectors(0).length),
    s"pivots must share one PAA width, got widths ${vectors.map(_.length).distinct.mkString(", ")}")

  /** PAA width of every pivot, and of every vector this set ranks. */
  def width: Int = vectors(0).length

  /** Rank-sensitive signature (Def. 5/6): ids of the m nearest pivots,
    * closest first.
    */
  def rankSensitive(paa: Array[Double]): Array[Int] = {
    // squaredEuclidean loops over the PAA's length: a longer PAA would read
    // past a pivot, a shorter one rank on a partial distance. A plain throw,
    // not `require`: its by-name message is a closure built per call.
    if (paa.length != width) throw new IllegalArgumentException(
      s"requirement failed: PAA width ${paa.length} differs from the pivots' width $width")
    // Insertion select of the m smallest (distance, id) pairs. Pivots are
    // visited in id order, so a pivot enters only when strictly closer than
    // the current m-th and moves only past strictly farther ones: equal
    // distances stay in id order. Double.compare puts NaN last.
    val m = prefixLen
    val bestD = new Array[Double](m)
    val bestId = new Array[Int](m)
    var kept = 0
    var i = 0
    while (i < vectors.length) {
      val d = Distances.squaredEuclidean(paa, vectors(i))
      if (kept < m || java.lang.Double.compare(d, bestD(m - 1)) < 0) {
        var j = if (kept < m) kept else m - 1
        while (j > 0 && java.lang.Double.compare(bestD(j - 1), d) > 0) {
          bestD(j) = bestD(j - 1); bestId(j) = bestId(j - 1); j -= 1
        }
        bestD(j) = d; bestId(j) = i
        if (kept < m) kept += 1
      }
      i += 1
    }
    bestId
  }

  /** Both signatures of a PAA vector. */
  def dual(paa: Array[Double]): (Array[Int], Array[Int]) = {
    val rs = rankSensitive(paa)
    (rs, PivotSet.rankInsensitive(rs))
  }
}

object PivotSet {

  /** Rank-insensitive signature (Def. 6): P⁴→ sorted by pivot id. */
  def rankInsensitive(rs: Array[Int]): Array[Int] = {
    val out = rs.clone()
    java.util.Arrays.sort(out)
    out
  }

  /** Frequencies of the rank-insensitive signatures, folded from the
    * aggregated rank-sensitive ones (Figure 6 Step 2): every P⁴⇉ is a
    * sorted P⁴→, so its frequency is the sum over the P⁴→ that sort to it.
    */
  def rankInsensitiveAgg(rsAgg: Seq[SigFreq]): Seq[SigFreq] =
    rsAgg.groupMapReduce(sf => rankInsensitive(sf.sig).toSeq)(_.freq)(_ + _)
      .iterator.map { case (ri, freq) => SigFreq(ri.toArray, freq) }.toSeq
}

object Pivots {

  /** Select up to `r` random pivots (with prefix length `m`) from the PAA
    * vectors of a sample DataFrame with column `paaCol`: the distinct vectors
    * among the `r` rows of smallest seeded hash of the vector's string form.
    * Deterministic in `seed`. A repeated vector would only tie with itself
    * on every distance, so the set keeps one copy and has fewer pivots, as
    * it has for a sample smaller than `r`.
    *
    * The hash is projected as a column once per row before the top-r, so the
    * per-partition top-r and its merge compare longs; ordering by the
    * expression itself would re-cast and re-hash both rows on every
    * comparison. Rows of equal hash hold equal vectors (barring a 64-bit
    * collision), so how ties are broken cannot change the pick.
    */
  def select(sample: DataFrame, paaCol: String, r: Int, m: Int, seed: Long): PivotSet = {
    val rows = sample
      .select(col(paaCol), xxhash64(col(paaCol).cast("string"), lit(seed)).as("_h"))
      .orderBy("_h")
      .limit(r)
      .collect()
      .map(_.getSeq[Double](0).toArray)
    require(rows.length > 0, "empty sample — cannot select pivots")
    // Equal vectors hash equally, so the copies of a vector are adjacent.
    val distinct = rows.indices.collect {
      case i if i == 0 || !java.util.Arrays.equals(rows(i), rows(i - 1)) => rows(i)
    }.toArray
    PivotSet(distinct, prefixLen = math.min(m, distinct.length))
  }
}
