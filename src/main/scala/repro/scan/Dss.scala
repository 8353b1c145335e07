package repro.scan

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
    * keeps a bounded top-K per query in (distance, id) order; the driver
    * merges them in the same order. Returns, per query, its top-K
    * (id, distance) pairs, closest first.
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
        heaps.map(_.sorted)
      }, partitions)
    Array.tabulate(queries.length) { q =>
      val merged = new TopK(k)
      perPartition.foreach(_(q).foreach { case (id, d) => merged.offer(d, id) })
      merged.sorted
    }
  }

  /** Bounded top-`k` of (distance, id) pairs: a binary max-heap under
    * (`java.lang.Double.compare` on distance, then id), so NaN sorts last.
    */
  private final class TopK(k: Int) {
    private val ds = new Array[Double](math.max(k, 0))
    private val ids = new Array[Long](math.max(k, 0))
    private var n = 0

    /** Does slot `a` come after (distance `d`, id `id`)? */
    private def after(a: Int, d: Double, id: Long): Boolean = {
      val c = java.lang.Double.compare(ds(a), d)
      c > 0 || (c == 0 && ids(a) > id)
    }
    private def swap(a: Int, b: Int): Unit = {
      val d = ds(a); ds(a) = ds(b); ds(b) = d
      val i = ids(a); ids(a) = ids(b); ids(b) = i
    }

    def offer(d: Double, id: Long): Unit =
      if (n < ds.length) {
        ds(n) = d; ids(n) = id
        var c = n
        n += 1
        while (c > 0 && after(c, ds((c - 1) / 2), ids((c - 1) / 2))) {
          swap(c, (c - 1) / 2); c = (c - 1) / 2
        }
      } else if (n > 0 && after(0, d, id)) {
        ds(0) = d; ids(0) = id
        var p = 0
        var sifting = true
        while (sifting) {
          val l = 2 * p + 1
          var top = p
          if (l < n && after(l, ds(top), ids(top))) top = l
          if (l + 1 < n && after(l + 1, ds(top), ids(top))) top = l + 1
          if (top == p) sifting = false else { swap(p, top); p = top }
        }
      }

    /** The kept pairs as (id, distance), closest first. */
    def sorted: Seq[(Long, Double)] =
      (0 until n).map(i => (ids(i), ds(i)))
        .sortBy { case (id, d) => (d, id) }(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long))
  }
}
