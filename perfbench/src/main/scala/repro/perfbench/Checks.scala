package repro.perfbench

import repro.core.ClimberIndex

/** Output checks: the contract of a kNN result and of an index placement. */
object Checks {

  /** Prefix of the violation for a result with the wrong number of ids. */
  val Short: String = "holds"

  /** Tolerance on a reported distance against the recomputed one. */
  val DistTol: Double = 1e-9

  /** Violations of the kNN result contract, empty when `res` is valid:
    * exactly `k` distinct ids in [0, n), ascending (distance, id) order, and
    * every distance equal to the recomputed Euclidean distance.
    */
  def result(res: Seq[(Long, Double)], k: Int, n: Long, query: Array[Double],
             seriesOf: Long => Array[Double]): Seq[String] = {
    val out = Seq.newBuilder[String]
    if (res.size != k) out += s"$Short ${res.size} results, expected $k"
    val distinct = res.map(_._1).distinct.size
    if (distinct != res.size) out += s"${res.size - distinct} duplicate ids"
    res.zip(res.drop(1)).find { case ((i1, d1), (i2, d2)) => !Truth.before(d1, i1, d2, i2) }
      .foreach { case (a, b) => out += s"out of (distance, id) order at $a, $b" }
    res.find { case (id, _) => id < 0 || id >= n }.foreach(r => out += s"id ${r._1} outside [0, $n)")
    res.iterator.filter { case (id, _) => id >= 0 && id < n }
      .find { case (id, d) => !(math.abs(d - Truth.ed(query, seriesOf(id))) <= DistTol) }
      .foreach { case (id, d) => out += s"distance $d of id $id differs from the recomputed ED" }
    out.result()
  }

  /** Violations of the placement contract, empty when every id in [0, n) is
    * placed exactly once and every `part` lies in [0, numPartitions).
    */
  def placement(index: ClimberIndex, n: Int): Seq[String] = {
    val np = index.skeleton.numPartitions
    val seen = new java.util.BitSet(n)
    var outside, twice, badPart = 0
    for (r <- index.data.select("id", "part").collect()) {
      val id = r.getLong(0)
      val part = r.getInt(1)
      if (id < 0 || id >= n) outside += 1
      else if (seen.get(id.toInt)) twice += 1
      else seen.set(id.toInt)
      if (part < 0 || part >= np) badPart += 1
    }
    val out = Seq.newBuilder[String]
    if (seen.cardinality != n) out += s"${n - seen.cardinality} of $n ids not placed"
    if (twice > 0) out += s"$twice ids placed more than once"
    if (outside > 0) out += s"$outside ids outside [0, $n)"
    if (badPart > 0) out += s"$badPart rows with part outside [0, $np)"
    out.result()
  }
}
