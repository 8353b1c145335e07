package repro.scan

import scala.collection.immutable.ArraySeq

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import repro.core.Distances

/** Distributed Sequential Scan (§VII-A): the brute-force exact kNN baseline
  * that scans every partition in parallel. Used both as a baseline and as
  * the ground-truth generator for the recall metric (Def. 4).
  *
  * Its kernel, `topK`, is also the localized ED re-rank of CLIMBER and of
  * the iSAX baselines: they run it on the planned partitions only.
  */
object Dss {

  /** Exact kNN of one query: full ED scan + top-K. Deterministic
    * (distance, id) ordering so ties never make recall flaky.
    */
  def knn(data: DataFrame, query: Array[Double], k: Int): Seq[(Long, Double)] =
    topK(data, None, allPartitions(data), Array(query), k).head

  /** Exact kNN for a batch of queries in a single pass over every
    * partition, with one bounded top-K per query. Returns qid → top-K record
    * ids (closest first). The job runs in `data`'s session; `spark` is kept
    * for callers' source compatibility.
    */
  def knnBatch(spark: SparkSession, data: DataFrame,
               queries: Seq[(Long, Array[Double])], k: Int): Map[Long, Seq[Long]] = {
    val res = topK(data, None, allPartitions(data), queries.map(_._2).toArray, k)
    queries.map(_._1).zip(res.map(_.map(_._1))).toMap
  }

  private def allPartitions(data: DataFrame): Seq[Int] =
    0 until data.queryExecution.toRdd.getNumPartitions

  /** The ED top-K kernel: one Spark job whose tasks run on `partitions` of
    * `data` (columns id: long, series: array<double>, …) only. Each task
    * keeps a bounded top-K per query and returns it as one sorted run of
    * primitive arrays; the driver k-way merges the runs of each query and
    * stops at K. Returns, per query, its top-K (id, distance) pairs in
    * ascending (`java.lang.Double.compare` on distance, then id) order, so
    * NaN sorts last. When the partitions hold fewer than K rows, every row
    * is returned.
    *
    * With `partCol`, the data must be laid out with Spark partition id =
    * `partCol`: a task that meets a row of another partition fails the job,
    * so a mis-laid-out DataFrame cannot silently answer from wrong rows.
    */
  def topK(data: DataFrame, partCol: Option[String], partitions: Seq[Int],
           queries: Array[Array[Double]], k: Int): Array[Seq[(Long, Double)]] = {
    val rdd = data.queryExecution.toRdd
    val idIdx = data.schema.fieldIndex("id")
    val seriesIdx = data.schema.fieldIndex("series")
    val partIdx = partCol.map(data.schema.fieldIndex).getOrElse(-1)
    val partName = partCol.getOrElse("")
    val perPartition = data.sparkSession.sparkContext.runJob(rdd,
      (ctx: TaskContext, rows: Iterator[InternalRow]) => {
        val heaps = Array.fill(queries.length)(new TopK(k))
        rows.foreach { row =>
          if (partIdx >= 0 && row.getInt(partIdx) != ctx.partitionId())
            throw new IllegalStateException(s"row with $partName = ${row.getInt(partIdx)} " +
              s"in Spark partition ${ctx.partitionId()}: the data is not laid out by $partName")
          val id = row.getLong(idIdx)
          val series = row.getArray(seriesIdx).toDoubleArray()
          var q = 0
          while (q < queries.length) {
            heaps(q).offer(Distances.euclidean(series, queries(q)), id); q += 1
          }
        }
        heaps.map(_.sortedRun())
      }, partitions)
    Array.tabulate(queries.length)(q => merge(perPartition.map(_(q)), k))
  }

  /** A run of (id, distance) pairs in ascending (distance, id) order. */
  private final case class Run(ids: Array[Long], ds: Array[Double])

  /** Is (`d`, `id`) after (`d2`, `id2`) in (`java.lang.Double.compare`, id) order? */
  private def after(d: Double, id: Long, d2: Double, id2: Long): Boolean = {
    val c = java.lang.Double.compare(d, d2)
    c > 0 || (c == 0 && id > id2)
  }

  /** The first `k` pairs of the sorted `runs`, closest first: each step takes
    * the smallest head among the runs.
    */
  private def merge(runs: Array[Run], k: Int): Seq[(Long, Double)] = {
    val pos = new Array[Int](runs.length)
    val out = new Array[(Long, Double)](math.min(math.max(k, 0), runs.map(_.ids.length).sum))
    var i = 0
    while (i < out.length) {
      var best = -1
      var r = 0
      while (r < runs.length) {
        val run = runs(r)
        if (pos(r) < run.ids.length && (best < 0 ||
            after(runs(best).ds(pos(best)), runs(best).ids(pos(best)), run.ds(pos(r)), run.ids(pos(r)))))
          best = r
        r += 1
      }
      out(i) = (runs(best).ids(pos(best)), runs(best).ds(pos(best)))
      pos(best) += 1
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }

  /** Bounded top-`k` of (distance, id) pairs: a binary max-heap under
    * (`java.lang.Double.compare` on distance, then id), so NaN sorts last.
    */
  private final class TopK(k: Int) {
    private val ds = new Array[Double](math.max(k, 0))
    private val ids = new Array[Long](math.max(k, 0))
    private var n = 0

    private def swap(a: Int, b: Int): Unit = {
      val d = ds(a); ds(a) = ds(b); ds(b) = d
      val i = ids(a); ids(a) = ids(b); ids(b) = i
    }

    /** Restore the heap from the root down, within the first `size` slots. */
    private def siftDown(size: Int): Unit = {
      var p = 0
      var sifting = true
      while (sifting) {
        val l = 2 * p + 1
        var top = p
        if (l < size && after(ds(l), ids(l), ds(top), ids(top))) top = l
        if (l + 1 < size && after(ds(l + 1), ids(l + 1), ds(top), ids(top))) top = l + 1
        if (top == p) sifting = false else { swap(p, top); p = top }
      }
    }

    def offer(d: Double, id: Long): Unit =
      if (n < ds.length) {
        ds(n) = d; ids(n) = id
        var c = n
        n += 1
        while (c > 0 && after(ds(c), ids(c), ds((c - 1) / 2), ids((c - 1) / 2))) {
          swap(c, (c - 1) / 2); c = (c - 1) / 2
        }
      } else if (n > 0 && after(ds(0), ids(0), d, id)) {
        ds(0) = d; ids(0) = id
        siftDown(n)
      }

    /** Heapsort the kept pairs in place (the heap is spent) and return them
      * as a run, closest first.
      */
    def sortedRun(): Run = {
      var end = n - 1
      while (end > 0) { swap(0, end); siftDown(end); end -= 1 }
      if (n == ds.length) Run(ids, ds) else Run(ids.take(n), ds.take(n))
    }
  }
}
