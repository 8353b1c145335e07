package repro.memory

import org.apache.spark.sql.DataFrame
import repro.core.{Distances, Paa}
import repro.scan.KeySort

/** Odyssey-like simulator [16] for Table I: a distributed *main-memory*
  * engine for **exact** kNN over data series, built on iSAX/PAA summaries.
  *
  * We reproduce its defining behaviours at laptop scale: (1) the whole
  * dataset plus summaries must fit in RAM — a memory-budget model reports
  * "X" beyond the budget, exactly where the paper's Table I does; (2) index
  * construction is just loading + summarising (no re-distribution), so it
  * is several times cheaper than CLIMBER's; (3) queries are exact
  * (recall = 1.0) and fast, using PAA lower-bound pruning with a top-K heap.
  */
final class OdysseySim(val ids: Array[Long], val series: Array[Array[Double]], paaW: Int) {
  private val n = series.headOption.map(_.length).getOrElse(0)
  private val paas: Array[Array[Double]] = series.map(Paa.of(_, paaW))

  /** Exact kNN: order candidates by PAA lower bound and stop scanning once
    * the bound exceeds the current k-th best true distance.
    */
  def knn(query: Array[Double], k: Int): Seq[(Long, Double)] = knnScanned(query, k)._1

  /** [[knn]] together with the number of series whose true ED was
    * computed (the lower bound's pruning power).
    */
  def knnScanned(query: Array[Double], k: Int): (Seq[(Long, Double)], Int) = {
    val qp = Paa.of(query, paaW)
    val lb = new Array[Double](series.length)
    var i = 0
    while (i < series.length) { lb(i) = Distances.paaLowerBound(qp, paas(i), n); i += 1 }
    // Candidates by ascending (lower bound, index): ties keep index order.
    val order = Array.tabulate(series.length)(_.toLong)
    KeySort.sortFirst(lb.map(KeySort.key), order, order.length, order.length)
    // Max-heap of the best k (distance, id) seen so far.
    val heap = new java.util.PriorityQueue[(Double, Long)](k,
      (a: (Double, Long), b: (Double, Long)) => java.lang.Double.compare(b._1, a._1))
    var j = 0
    var done = false
    while (j < order.length && !done) {
      val idx = order(j).toInt
      if (heap.size == k && lb(idx) > heap.peek()._1) done = true
      else {
        val d = Distances.euclidean(query, series(idx))
        if (heap.size < k) heap.add((d, ids(idx)))
        else if (d < heap.peek()._1) { heap.poll(); heap.add((d, ids(idx))) }
      }
      j += 1
    }
    val res = heap.toArray(new Array[(Double, Long)](0)).toSeq
      .map { case (d, id) => (id, d) }
      .sortBy { case (id, d) => (d, id) }
    (res, j)
  }
}

object OdysseySim {

  /** Build, honouring the memory budget (in series). Returns Left(reason)
    * when the dataset would not fit the simulated cluster RAM.
    */
  def build(data: DataFrame, nSeries: Long, budgetSeries: Long,
            paaW: Int = 32): Either[String, OdysseySim] =
    InMemory.load(data, nSeries, budgetSeries, "memory budget")
      .map { case (ids, series) => new OdysseySim(ids, series, paaW) }
}
