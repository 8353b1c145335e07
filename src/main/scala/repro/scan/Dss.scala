package repro.scan

import scala.annotation.unused
import scala.collection.immutable.ArraySeq

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.UnsafeArrayData
import org.apache.spark.sql.columnar.CachedBatch
import org.apache.spark.sql.execution.columnar.{ColumnDecoder, DefaultCachedBatch, InMemoryRelation}
import org.apache.spark.sql.execution.vectorized.OnHeapColumnVector
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, LongType}
import org.apache.spark.unsafe.Platform

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
    scan(data, Array(query), k).head

  /** Exact kNN for a batch of queries in a single pass over every
    * partition, with one top-K per query. Returns qid → top-K record ids
    * (closest first). The job runs in `data`'s session; `spark` is kept for
    * callers' source compatibility.
    */
  def knnBatch(@unused spark: SparkSession, data: DataFrame,
               queries: Seq[(Long, Array[Double])], k: Int): Map[Long, Seq[Long]] = {
    val res = scan(data, queries.map(_._2).toArray, k)
    queries.map(_._1).zip(res.map(_.map(_._1))).toMap
  }

  /** Lay `df` (with an int column `part`) out one Spark partition per value
    * of `part`, cache it and load the cache. Returns the cached layout and
    * the rows of each of its `numPartitions` partitions. `repartitionById`
    * shuffles through Spark's exact partitioner, so Spark partition `p`
    * holds exactly the rows with `part = p`. The cache's [[buffers]] are
    * `localCheckpoint`ed before their first job: they keep their id, their
    * MEMORY_AND_DISK blocks and their bytes, but not their lineage back
    * through the shuffle, so the tasks `topK` runs on them ship only the
    * buffer RDD. A lost block then fails the scan that needs it instead of
    * recomputing the layout. One job over the buffers loads them and sums
    * each partition's batch sizes.
    */
  def cacheByPart(df: DataFrame, numPartitions: Int): (DataFrame, Array[Long]) = {
    val data = df.repartitionById(numPartitions, col("part")).cache()
    try (data, buffers(data).localCheckpoint()
      .mapPartitions(batches => Iterator(batches.map(_.numRows.toLong).sum)).collect())
    catch { case e: Throwable => data.unpersist(); throw e }
  }

  /** The column-buffer RDD of `df`'s cache. A job over it loads the cache
    * without the aggregation a DataFrame `count()` adds. Fails when `df` is
    * not read from a cache.
    */
  def buffers(df: DataFrame): RDD[CachedBatch] = df.queryExecution.withCachedData match {
    case r: InMemoryRelation => r.cacheBuilder.cachedColumnBuffers
    case other => throw new IllegalStateException(s"the DataFrame is not read from its cache: $other")
  }

  /** The ED top-K kernel: one Spark job whose tasks run on `partitions` of
    * `data` (columns id: long, series: array<double>, part: int, …) only.
    * Each task ranks its rows per query and returns the first K as one
    * sorted run of primitive arrays; the driver k-way merges the runs of each
    * query and stops at K. Returns, per query, its top-K (id, distance) pairs
    * in ascending (`java.lang.Double.compare` on distance, then id) order, so
    * NaN sorts last (and comes back as `Double.NaN`). When the partitions
    * hold fewer than K rows, every row is returned.
    *
    * `data` must be laid out as [[cacheByPart]] lays it out, Spark partition
    * id = `part`: a task that meets a row of another partition fails the
    * job, so a mis-laid-out DataFrame cannot silently answer from wrong rows.
    * Spark's `runJob` rejects a partition id outside `data`'s partitions
    * with an `IllegalArgumentException`.
    *
    * The job is [[job]]'s: a cached DataFrame's column batches are ranked in
    * place, anything else is read through its SQL plan. A stored series
    * whose length differs from a query's fails the job ("length mismatch",
    * as `Distances.euclidean`), and so does a null series.
    */
  def topK(data: DataFrame, partitions: Seq[Int],
           queries: Array[Array[Double]], k: Int): Array[Seq[(Long, Double)]] =
    job(data, checkPart = true, queries, k).run(partitions)

  /** The `topK` kernel on every partition of any `data` (columns id: long,
    * series: array<double>, …), with no layout check.
    */
  private[scan] def scan(data: DataFrame, queries: Array[Array[Double]],
                         k: Int): Array[Seq[(Long, Double)]] = {
    val j = job(data, checkPart = false, queries, k)
    j.run(0 until j.rdd.getNumPartitions)
  }

  /** The scan job over `data`, whose tasks rank its rows against `queries`
    * and check each row's `part` when `checkPart` is set. For a DataFrame
    * that is cached as a whole, the job runs on the cache's own column
    * batches ([[buffers]]) with a [[RankBatches]] task: the tasks then carry
    * the buffer RDD, not the SQL scan plan and its cache builder, and read
    * the batches without a generated accessor or a row copy. Batches not
    * loaded yet are loaded by the scan, partition by partition, as a plan
    * over the cache would load them. Any other DataFrame is read through its
    * `queryExecution.toRdd`, with a [[Rank]] task.
    *
    * A DataFrame whose cache was dropped fails: reading it would silently
    * rebuild and re-persist the buffers.
    */
  private[scan] def job(data: DataFrame, checkPart: Boolean,
                        queries: Array[Array[Double]], k: Int): Job[_] = {
    val s = data.schema
    val doubles = s("series").dataType match { case ArrayType(DoubleType, _) => true; case _ => false }
    require(s("id").dataType == LongType && doubles && (!checkPart || s("part").dataType == IntegerType),
      s"a scan reads id: long, series: array<double>${if (checkPart) " and part: int" else ""}, not $s")
    val (id, series, part) = (s.fieldIndex("id"), s.fieldIndex("series"),
      if (checkPart) s.fieldIndex("part") else -1)
    val qe = data.queryExecution
    qe.withCachedData match {
      case r: InMemoryRelation =>
        val builder = r.cacheBuilder
        val session = qe.sparkSession
        // Loaded buffers belong to a live cache. Otherwise the cache manager
        // must still hold this builder. The check and the getter hold the
        // builder's lock, so an unpersist cannot come between them.
        val buffers = builder.synchronized {
          if (!builder.isCachedColumnBuffersLoaded && !session.sharedState.cacheManager
              .lookupCachedData(session, qe.normalized).exists(_.cachedRepresentation.cacheBuilder eq builder))
            throw new IllegalStateException("the DataFrame's cache was dropped (unpersisted)")
          builder.cachedColumnBuffers
        }
        // A cached batch holds one buffer per column of the relation, in
        // `data`'s column order.
        Job(buffers, new RankBatches(id, series, part, queries, k))
      case _ => Job(qe.toRdd, new Rank(id, series, part, queries, k))
    }
  }

  /** A scan job: `task` on partitions of `rdd`. */
  private[scan] final case class Job[T](rdd: RDD[T], task: Ranker[T]) {
    /** Each partition's sorted runs, one per query. */
    def runs(partitions: Seq[Int]): Array[Array[Run]] = rdd.sparkContext.runJob(rdd, task, partitions)

    /** Each query's top-K over `partitions`: the merge of their runs. */
    def run(partitions: Seq[Int]): Array[Seq[(Long, Double)]] = {
      val perPartition = runs(partitions)
      Array.tabulate(task.queries.length)(q => merge(perPartition.map(_(q)), task.k))
    }
  }

  /** The task a scan job runs on each partition of `T`s: the ED of every
    * row to every query, kept per query in a [[TopK]], returned as sorted
    * runs. Its subclasses are named classes rather than lambdas so that
    * `runJob`'s closure cleaner returns at once instead of re-reading this
    * object's class file for every job. A subclass given a `part` column
    * (`partIdx` ≥ 0) checks that each row's `part` is its task's partition.
    */
  private[scan] sealed abstract class Ranker[T](val queries: Array[Array[Double]], val k: Int)
      extends ((TaskContext, Iterator[T]) => Array[Run]) with Serializable {

    final def apply(ctx: TaskContext, items: Iterator[T]): Array[Run] = {
      val tops = Array.fill(queries.length)(new TopK(k))
      while (items.hasNext) rank(items.next(), ctx.partitionId(), tops)
      tops.map(_.sortedRun())
    }

    /** Offer every row of `item`, which `partition`'s task reads, to `tops`. */
    protected def rank(item: T, partition: Int, tops: Array[TopK]): Unit

    protected final def checkPart(part: Int, partition: Int): Unit =
      if (part != partition)
        throw new IllegalStateException(s"row with part = $part " +
          s"in Spark partition $partition: the data is not laid out by part")

    protected final def nullSeries(id: Long): Nothing =
      throw new IllegalStateException(s"the series of id $id is null")

    /** Offer row `id`, whose series of `n` doubles lies in `base` at
      * `offset`, to every query's top-K.
      */
    protected final def offer(tops: Array[TopK], id: Long, base: AnyRef, offset: Long, n: Int): Unit = {
      var q = 0
      while (q < queries.length) {
        tops(q).offer(euclidean(base, offset, n, queries(q)), id); q += 1
      }
    }
  }

  /** The task over `InternalRow`s (the `toRdd` path). ED is read in place
    * from a row's `UnsafeArrayData`, the form Spark's scans hand out; a
    * series in any other `ArrayData` is copied out first and gives the same
    * bits.
    */
  private[scan] final class Rank(idIdx: Int, seriesIdx: Int, partIdx: Int,
                                 queries: Array[Array[Double]], k: Int)
      extends Ranker[InternalRow](queries, k) {

    protected def rank(row: InternalRow, partition: Int, tops: Array[TopK]): Unit = {
      if (partIdx >= 0) checkPart(row.getInt(partIdx), partition)
      val id = row.getLong(idIdx)
      if (row.isNullAt(seriesIdx)) nullSeries(id)
      row.getArray(seriesIdx) match {
        case u: UnsafeArrayData =>
          val n = u.numElements()
          offer(tops, id, u.getBaseObject, u.getBaseOffset + UnsafeArrayData.calculateHeaderPortionInBytes(n), n)
        case other =>
          val copy = other.toDoubleArray()
          offer(tops, id, copy, Platform.DOUBLE_ARRAY_OFFSET, copy.length)
      }
    }
  }

  /** The task over a cache's `DefaultCachedBatch`es, each ranked in place.
    * `id` and `part` are decoded by Spark's own column decoder
    * ([[ColumnDecoder]]) into on-heap vectors. The series column is not
    * compressed: its buffer is the null count, the null rows' positions,
    * then per non-null row its byte count and its `UnsafeArrayData` bytes,
    * whose doubles ED reads in place. A null series, a row whose byte count
    * disagrees with its element count, and a buffer that does not end after
    * the batch's last row fail the job, so a changed Spark format cannot
    * answer from misread bytes.
    */
  private[scan] final class RankBatches(idIdx: Int, seriesIdx: Int, partIdx: Int,
                                        queries: Array[Array[Double]], k: Int)
      extends Ranker[CachedBatch](queries, k) {

    protected def rank(batch: CachedBatch, partition: Int, tops: Array[TopK]): Unit = batch match {
      case b: DefaultCachedBatch =>
        val rows = b.numRows
        val ids = new OnHeapColumnVector(rows, LongType)
        ColumnDecoder.decompress(b.buffers(idIdx), ids, LongType, rows)
        if (partIdx >= 0) {
          val parts = new OnHeapColumnVector(rows, IntegerType)
          ColumnDecoder.decompress(b.buffers(partIdx), parts, IntegerType, rows)
          var i = 0
          while (i < rows) { checkPart(parts.getInt(i), partition); i += 1 }
        }
        val bytes = b.buffers(seriesIdx)
        val start = Platform.BYTE_ARRAY_OFFSET.toLong
        val end = start + bytes.length
        if (Platform.getInt(bytes, start) > 0) nullSeries(ids.getLong(Platform.getInt(bytes, start + 4)))
        var pos = start + 4
        var i = 0
        while (i < rows) {
          if (pos + 12 > end) badLayout(i, rows)
          val size = Platform.getInt(bytes, pos)
          val n = Platform.getLong(bytes, pos + 4)
          // n doubles take the array's header and 8n bytes.
          if (n < 0 || n > Int.MaxValue || size != UnsafeArrayData.calculateHeaderPortionInBytes(n) + 8 * n ||
              pos + 4 + size > end) badLayout(i, rows)
          offer(tops, ids.getLong(i), bytes, pos + 4 + size - 8 * n, n.toInt)
          pos += 4 + size
          i += 1
        }
        if (pos != end) badLayout(rows, rows)
      case other => throw new IllegalStateException(
        s"a cached batch of ${other.getClass.getName}: only Spark's default cache serializer is read")
    }

    private def badLayout(row: Int, rows: Int): Nothing = throw new IllegalStateException(
      s"the cached series column does not hold $rows UnsafeArrayData rows (at row $row)")
  }

  /** `Distances.euclidean(x, y)` with `x`, of length `n`, read in place from
    * `base` at `offset`: the same `x(i) − y(i)` order and one accumulator,
    * so the same bits.
    */
  private def euclidean(base: AnyRef, offset: Long, n: Int, y: Array[Double]): Double = {
    // A plain throw, not `require`: its by-name message is a closure built per call.
    if (n != y.length)
      throw new IllegalArgumentException(s"requirement failed: length mismatch $n vs ${y.length}")
    var s = 0.0
    var i = 0
    while (i < n) { val d = Platform.getDouble(base, offset + 8L * i) - y(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** A run of (id, distance key) pairs in ascending [[KeySort]] order. */
  private[scan] final case class Run(ids: Array[Long], keys: Array[Long])

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
        if (pos(r) < run.ids.length && (best < 0 || KeySort.less(run.keys(pos(r)), run.ids(pos(r)),
            runs(best).keys(pos(best)), runs(best).ids(pos(best)))))
          best = r
        r += 1
      }
      out(i) = (runs(best).ids(pos(best)), KeySort.distance(runs(best).keys(pos(best))))
      pos(best) += 1
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }

  /** One query's top-`k` within a task: (distance key, id) pairs buffered
    * in primitive arrays of max(2k, 1024) slots. When the buffer fills it is
    * cut to its first `k` pairs by [[KeySort.sortFirst]], and the k-th pair
    * becomes the bound a later pair must precede to be buffered, so memory
    * stays O(k) and most rows cost one comparison.
    */
  private[scan] final class TopK(k: Int) {
    private val cap = math.min(math.max(2L * k, 1024L), Int.MaxValue - 8L).toInt
    private val keys = new Array[Long](cap)
    private val ids = new Array[Long](cap)
    private var n = 0
    // No key equals Long.MaxValue or Long.MinValue, so at first every pair
    // precedes the bound, and with k <= 0 none does.
    private var boundKey = if (k > 0) Long.MaxValue else Long.MinValue
    private var boundId = 0L

    def offer(d: Double, id: Long): Unit = {
      val key = KeySort.key(d)
      if (KeySort.less(key, id, boundKey, boundId)) {
        keys(n) = key; ids(n) = id
        n += 1
        if (n == cap) {
          KeySort.sortFirst(keys, ids, n, k)
          n = k
          boundKey = keys(k - 1); boundId = ids(k - 1)
        }
      }
    }

    /** Sort the kept pairs and return the first `k` as a run, closest first. */
    def sortedRun(): Run = {
      val m = math.min(n, math.max(k, 0))
      KeySort.sortFirst(keys, ids, n, m)
      Run(ids.take(m), keys.take(m))
    }
  }
}
