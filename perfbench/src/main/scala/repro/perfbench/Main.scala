package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{BuildStats, ClimberIndex, ClimberQuery}
import repro.scan.Dss
import repro.series.SeriesGen
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** The CLIMBER benchmark: one workload per run, measured from outside the
  * program by timing calls into its public functions.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * The last line of standard output is one JSON object with the keys
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * with `--trace 0`, the per-layer metrics with `--trace 1`. The process
  * exits 1 when a placement check fails or a query returns a wrong result.
  */
object Main {

  /** A query workload: `clients` closed-loop clients asking for the `k`
    * nearest neighbours over `n` series of `dataset`.
    */
  final case class Workload(name: String, dataset: String, n: Int, clients: Int, k: Int)

  val Workloads: Seq[Workload] = Seq(
    Workload("rw50k-q1", "RandomWalk", 50000, clients = 1, k = 500),
    Workload("eeg50k-q4-k2000", "EEG", 50000, clients = 4, k = 2000),
  )

  /** The paper's default query variant (§VII). */
  val Variant: ClimberQuery.Variant = ClimberQuery.Adaptive(4)

  /** Set-up repetitions per run; `setup_s` is their median. The first also
    * pays for the Spark session and the JIT's first pass.
    */
  val SetupReps: Int = 3

  /** The first queries of the seed's list run untimed, four at a time, at
    * the end of set-up, while the JIT compiles the query path. The JVM runs
    * C1 only (see run.py), and latency is flat after this many queries. A
    * count, not a duration, so that a slow run starts its timed phase no
    * colder than a fast one.
    */
  val WarmupQueries: Int = 32
  val WarmupClients: Int = 4

  /** Recall is the mean over the first `RecallQueries` queries of the
    * seed's list, the same queries whatever the program's speed. Those the
    * warm-up and timed phase did not reach run untimed afterwards.
    */
  val RecallQueries: Int = 80

  /** Latency percentile printed as the tail, with its sample count and the
    * number of samples beyond it. The report also names the highest
    * percentile with `Stats.MinBeyond` samples beyond it. It is printed, not
    * bounded: across runs on a shared 4-core machine its spread on
    * `eeg50k-q4-k2000` exceeded the largest bound allowed.
    */
  val TailPct: Double = 75.0

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, out: Path)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workloads.find(_.name == need("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${need("workload")}; " +
        s"choose one of ${Workloads.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = need("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    Args(w, need("seed").toLong, seconds, trace, Paths.get(kv.getOrElse("out", ".bench_build/perfbench")))
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val args = Try(parse(argv)) match {
      case Success(a) => a
      case Failure(e) => Console.err.println(e.getMessage); sys.exit(2)
    }
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("climber-perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", args.out.resolve("spark-local").toAbsolutePath.toString)
      .getOrCreate()
    val code =
      try {
        val r = new Run(spark, args, t0).run()
        println(r.json)
        if (r.correct) 0 else 1
      } catch {
        case e: Throwable => e.printStackTrace(); 2
      } finally spark.stop()
    sys.exit(code)
  }

  /** Outcome of one run; `metrics` holds (name, value, unit). */
  final case class Result(correct: Boolean, attempted: Long, failed: Long,
                          metrics: Seq[(String, Double, String)]) {
    def json: String = {
      val ms = metrics.map { case (k, v, u) =>
        require(!v.isNaN && !v.isInfinite, s"metric $k is $v")
        s""""$k": {"value": $v, "unit": "$u"}"""
      }
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }
}

/** One query execution. The plan fields are filled in traced executions only. */
final case class Exec(seq: Int, qid: Long, startNs: Long, endNs: Long,
                      result: Try[Seq[(Long, Double)]], traced: Boolean, scanSpan: Int = -1,
                      planUs: Double = 0, planParts: Array[Int] = Array.empty, baseParts: Int = 0) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** One run of one workload. */
final class Run(spark: SparkSession, args: Main.Args, t0: Long) {
  import Main._

  private val w = args.workload
  private val sc = spark.sparkContext
  private val params = repro.exp.Workloads.benchParams
  private val tracer = new Tracer(args.trace)
  private val attribution = new Attribution
  private val report = ArrayBuffer[(String, Double, String)]()
  private val problems = ArrayBuffer[String]()
  private var attempted = 0L
  private var failed = 0L
  private var short = 0L

  private def log(msg: String): Unit = println(s"[perfbench ${w.name}] $msg")
  private def metric(name: String, v: Double, unit: String, note: String = ""): Unit = {
    report += ((name, v, unit))
    log(f"$name%-34s $v%14.4f $unit%-6s $note")
  }
  private def secs(ns: Long): Double = ns / 1e9
  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Query ids drawn from the dataset's id space with the workload seed
    * (§VII-A), taken in order: warm-up first, then timed.
    */
  private val pool: IndexedSeq[Long] = {
    val rng = new java.util.Random(args.seed * 0x9E3779B97F4A7C15L + 77)
    val ids = scala.collection.mutable.LinkedHashSet[Long]()
    while (ids.size < math.min(w.n, 4096)) ids += math.floorMod(rng.nextLong(), w.n.toLong)
    ids.toIndexedSeq
  }
  /** Driver-local copy of the dataset, for ground truth and output checks. */
  private lazy val local: Array[Array[Double]] = Truth.local(w.dataset, w.n, args.seed, threads = 4)
  private def series(id: Long): Array[Double] = SeriesGen.local(w.dataset, id, args.seed)

  private var df: DataFrame = _
  private var index: ClimberIndex = _
  private var indexRdd: Int = -1
  private val builds = ArrayBuffer[(BuildStats, String, Int)]() // (stats, job tag, span id)

  private def generate(parent: Int): Double = tracer.span("series.generate", parent) { _ =>
    val s = System.nanoTime()
    if (df != null) df.unpersist(blocking = true)
    df = SeriesGen.generate(spark, w.dataset, w.n, args.seed).cache()
    df.count()
    secs(System.nanoTime() - s)
  }

  /** Build the index over `df`, replacing the previous one, and check its
    * placement. A placement violation fails the run.
    */
  private def build(parent: Int, tag: String): Unit = {
    if (index != null) index.data.unpersist(blocking = true)
    val before = sc.getPersistentRDDs.keySet
    index = tracer.span("index.build", parent) { id =>
      val idx = Attribution.tagged(sc, tag)(ClimberIndex.build(spark, df, params))
      builds += ((idx.stats, tag, id))
      idx
    }
    indexRdd = (sc.getPersistentRDDs.keySet -- before).headOption.getOrElse(-1)
    val bad = tracer.span("check.placement", parent)(_ => Checks.placement(index, w.n))
    problems ++= bad.map(b => s"placement after $tag: $b")
  }

  /** Closed loop: each client sends its next query when its last one
    * returns. Pool positions are handed out in order from `first`, so the
    * executed queries are the positions [first, first + executions) whatever
    * the interleaving. Clients stop starting queries after `seconds` or at
    * position `until`; with `traceOdd`, every odd position is traced.
    */
  private def closedLoop(seconds: Double, first: Int, traceOdd: Boolean = false, root: Int = -1,
                         until: Int = Int.MaxValue, nClients: Int = w.clients): (Seq[Exec], Double) = {
    val next = new AtomicInteger(first)
    val clients = Executors.newFixedThreadPool(nClients)
    val start = System.nanoTime()
    val deadline = if (seconds.isInfinite) Long.MaxValue else start + (seconds * 1e9).toLong
    try {
      val futures = (0 until nClients).map { _ =>
        clients.submit(new Callable[Seq[Exec]] {
          def call(): Seq[Exec] = {
            val out = Seq.newBuilder[Exec]
            var i = 0
            while (System.nanoTime() < deadline && { i = next.getAndIncrement(); i < until })
              out += query(i, traceOdd && i % 2 == 1, root)
            out.result()
          }
        })
      }
      val execs = futures.flatMap(_.get()).sortBy(_.seq)
      (execs, secs(execs.map(_.endNs).maxOption.getOrElse(start) - start))
    } finally clients.shutdown()
  }

  /** One query. Untraced, it is one `ClimberQuery.knn` call; traced, the
    * two steps `knn` takes, `planFor` then `scanTopK`, each in a span, with
    * the query's Spark jobs tagged for attribution.
    */
  private def query(i: Int, traced: Boolean, root: Int): Exec = {
    val qid = pool(i % pool.size)
    val q = series(qid)
    if (!traced) {
      val s = System.nanoTime()
      val r = Try(ClimberQuery.knn(index, q, w.k, Variant, qid))
      Exec(i, qid, s, System.nanoTime(), r, traced = false)
    } else {
      var scanSpan = -1
      var planNs = 0L
      var parts = Array.empty[Int]
      val s = System.nanoTime()
      val r = tracer.span("query", root, i) { qs =>
        Attribution.tagged(sc, s"q$i")(Try {
          val p0 = System.nanoTime()
          val plan = tracer.span("plan", qs, i)(_ => ClimberQuery.planFor(index, q, w.k, Variant, qid))
          planNs = System.nanoTime() - p0
          parts = plan.partitions
          tracer.span("scan", qs, i) { id =>
            scanSpan = id
            ClimberQuery.scanTopK(index.data, "part", plan.partitions, q, w.k)
          }
        })
      }
      val e = System.nanoTime()
      val base = ClimberQuery.planFor(index, q, w.k, ClimberQuery.Knn, qid).partitions.length
      Exec(i, qid, s, e, r, traced = true, scanSpan, planNs / 1e3, parts, base)
    }
  }

  /** Check every execution and score recall on the first `RecallQueries`.
    * A query that throws or returns a wrong result is a failed operation and
    * fails the run. A result that is valid but holds fewer than K ids is the
    * known short-result defect (ROADMAP item 5): it is counted in `short`,
    * not in `failed`, and its missing ids count as misses in recall.
    */
  private def verify(execs: Seq[Exec]): Double = {
    val firsts = execs.filter(_.seq < RecallQueries)
    require(firsts.map(_.seq) == (0 until RecallQueries), "recall queries missing")
    val v0 = System.nanoTime()
    local
    val v1 = System.nanoTime()
    val truth = tracer.span("truth.exact", -1) { _ =>
      Truth.cached(args.out.resolve("truth"), w.dataset, w.n, args.seed, w.k, firsts.map(_.qid)) {
        Truth.exact(local, w.k, firsts.map(e => e.qid -> local(e.qid.toInt)), threads = 4)
      }
    }
    val v2 = System.nanoTime()
    attempted += execs.size
    for (e <- execs) {
      val bad = e.result match {
        case Failure(t) => Seq(s"threw $t")
        case Success(r) => Checks.result(r, w.k, w.n, local(e.qid.toInt), id => local(id.toInt))
      }
      val wrong = bad.filterNot(_.startsWith(Checks.Short))
      if (wrong.nonEmpty) {
        failed += 1
        problems += s"query ${e.seq} (id ${e.qid}): ${wrong.mkString("; ")}"
      } else if (bad.nonEmpty) {
        short += 1
        if (short <= 3) log(s"short result, query ${e.seq} (id ${e.qid}): ${bad.mkString("; ")}")
      }
    }
    val recalls = firsts.map { e =>
      val exact = truth(e.qid).map(_._1).toSet
      e.result.toOption.map(r => r.count(x => exact.contains(x._1)).toDouble / exact.size).getOrElse(0.0)
    }
    log(f"verify (s): local copy ${secs(v1 - v0)}%.2f, ground truth ${secs(v2 - v1)}%.2f, " +
      f"checks and recall ${secs(System.nanoTime() - v2)}%.2f")
    recalls.sum / math.max(1, recalls.size)
  }

  /** Run, untimed and four at a time, the recall queries `done` did not reach. */
  private def recallRest(done: Seq[Exec]): Seq[Exec] =
    closedLoop(Double.PositiveInfinity, done.size, until = RecallQueries, nClients = WarmupClients)._1

  private def storageRatio(): Double = {
    val info = sc.getRDDStorageInfo.find(_.id == indexRdd)
      .getOrElse(throw new IllegalStateException("the index data is not cached"))
    (info.memSize + info.diskSize).toDouble / (w.n.toLong * SeriesGen.Lengths(w.dataset) * 8.0)
  }

  def run(): Main.Result = {
    if (args.trace) sc.addSparkListener(attribution)
    log(s"dataset=${w.dataset} n=${w.n} clients=${w.clients} K=${w.k} seed=${args.seed} " +
      s"seconds=${args.seconds} trace=${args.trace} variant=${Variant.label} " +
      s"cores=${sc.defaultParallelism}")

    // Set-up: generate and cache the data, build the index, warm the query path.
    var warmup = Seq.empty[Exec]
    val setupTimes = ArrayBuffer[Double]()
    val genTimes = ArrayBuffer[Double]()
    var repStart = t0
    for (rep <- 1 to SetupReps) {
      tracer.span("setup", -1, rep) { sp =>
        genTimes += generate(sp)
        build(sp, s"build-$rep")
        if (rep == SetupReps)
          warmup = tracer.span("warmup", sp)(wu =>
            closedLoop(Double.PositiveInfinity, 0, root = wu, until = WarmupQueries, nClients = WarmupClients))._1
      }
      setupTimes += secs(System.nanoTime() - repStart)
      repStart = System.nanoTime()
    }
    log(f"set-up repetitions (s): ${setupTimes.map(t => f"$t%.3f").mkString(", ")}; " +
      f"builds (s): ${builds.map(b => f"${b._1.totalSec}%.3f").mkString(", ")}")
    val warmBuilds = builds.drop(1).map(_._1).toSeq

    if (!args.trace) {
      val (execs, wall) = closedLoop(args.seconds, warmup.size)
      val recall = verify(warmup ++ execs ++ recallRest(warmup ++ execs))
      val lat = execs.filter(_.result.isSuccess).map(_.ms)
      val tail = Stats.tail(lat).map(_.label).getOrElse(s"none (n=${lat.size})")
      val p50 = Stats.at(lat, 50)
      val pt = Stats.at(lat, TailPct)
      metric("setup_s", Stats.median(setupTimes.toSeq), "s", s"median of ${setupTimes.size} set-ups")
      metric("build_s", Stats.median(warmBuilds.map(_.totalSec)), "s",
        s"median of ${warmBuilds.size} warm builds")
      metric("query_p50_ms", p50.value, "ms", s"n=${p50.samples}")
      log(f"query_p$TailPct%.0f_ms ${pt.value}%.4f ms (n=${pt.samples}, ${pt.beyond} beyond; " +
        s"highest tail with ${Stats.MinBeyond} beyond: $tail)")
      metric("qps", execs.size / wall, "1/s", f"${execs.size} queries in $wall%.2f s")
      if (execs.size >= 4) {
        val quarters = execs.grouped((execs.size + 3) / 4).map(q => f"${Stats.median(q.map(_.ms))}%.1f")
        log(s"drift: p50 by quarter of the timed phase (ms): ${quarters.mkString(", ")}")
      }
      metric("recall", recall, "ratio", s"mean recall@${w.k} over the first $RecallQueries queries")
      metric("storage_ratio", storageRatio(), "ratio", "cached index bytes / raw series bytes")
    } else traced(warmup, warmBuilds, genTimes.toSeq)

    log(f"failed_frac ${failed.toDouble / math.max(1, attempted)}%.4f ($failed of $attempted queries)")
    log(f"short_frac ${short.toDouble / math.max(1, attempted)}%.4f ($short of $attempted queries " +
      s"returned fewer than ${w.k} ids, ROADMAP item 5)")
    problems.take(20).foreach(p => Console.err.println(s"[perfbench ${w.name}] FAILED $p"))
    Main.Result(problems.isEmpty, attempted, failed, report.toSeq)
  }

  /** The traced run: every other timed query is traced, and the per-layer
    * metrics come from those queries, the set-up builds and the layer
    * microbenchmarks.
    */
  private def traced(warmup: Seq[Exec], warmBuilds: Seq[BuildStats], genTimes: Seq[Double]): Unit = {
    val partRows: Map[Int, Long] =
      index.data.groupBy("part").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val sparkRows: Map[Int, Long] = index.data.select(spark_partition_id().as("sp")).groupBy("sp")
      .count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val g0Rows = index.data.filter(col("group") === 0).count()

    val gc0 = gcMs()
    val (execs, _) = tracer.span("timed", -1)(sp => closedLoop(args.seconds, warmup.size, traceOdd = true, sp))
    val gc = gcMs() - gc0
    verify(warmup ++ execs ++ recallRest(warmup ++ execs))
    val dssMs = pool.take(3).map { qid =>
      tracer.span("dss.knn", -1) { _ =>
        val s = System.nanoTime(); Dss.knn(df, local(qid.toInt), w.k); (System.nanoTime() - s) / 1e6
      }
    }
    val layers = tracer.span("layers", -1)(sp => Layers.run(tracer, sp, index, df, local, args.seed))
    attribution.drain(sc)

    // Spark tasks become child spans of their query's scan or their build.
    val tr = execs.filter(_.traced)
    val parentOf = tr.map(e => s"q${e.seq}" -> (e.scanSpan, e.seq.toLong)).toMap ++
      builds.map { case (_, tag, span) => tag -> (span, -1L) }
    for ((tag, (span, op)) <- parentOf; t <- attribution.tasks(tag))
      tracer.add(Span(tracer.nextId(), "spark.task", tracer.fromEpochMs(t.launchMs),
        tracer.fromEpochMs(t.finishMs), span, op))
    val spans = tracer.all
    val spanDur = spans.map(s => s.id -> s.dur).toMap

    val perQuery = tr.map { e =>
      val ts = attribution.tasks(s"q${e.seq}")
      val touched = ts.filter(_.readsRdd.contains(indexRdd)).map(t => sparkRows.getOrElse(t.partition, 0L)).sum
      (ts.size.toDouble, touched.toDouble, ts.map(_.runMs).sum.toDouble, ts.map(_.waitMs).sum.toDouble,
        attribution.jobs(s"q${e.seq}").toDouble)
    }
    def mean(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else xs.sum / xs.size
    val plannedRows = tr.map(_.planParts.map(partRows.getOrElse(_, 0L)).sum.toDouble)
    val touched = perQuery.map(_._2)
    val untracedMs = execs.filterNot(_.traced).filter(_.result.isSuccess).map(_.ms)
    val tracedMs = tr.filter(_.result.isSuccess).map(_.ms)
    val shuffleMb = builds.map { case (_, tag, _) => attribution.tasks(tag).map(_.shuffleWriteBytes).sum / 1e6 }
    val skel = index.skeleton
    val parts = partRows.values.toSeq

    metric("series.generate_s", Stats.median(genTimes), "s", s"median of ${genTimes.size}")
    metric("paa.us_per_series", layers.paaUsPerSeries, "us", s"sample of ${layers.sample}")
    metric("pivots.dual_us", layers.dualUs, "us")
    metric("pivots.select_s", layers.pivotsSelectS, "s")
    metric("assign.us_per_record", layers.assignUsPerRecord, "us")
    metric("skeleton.build_ms", layers.skeletonBuildMs, "ms")
    metric("centroids.compute_ms", layers.centroidsComputeMs, "ms")
    metric("build.skeleton_s", Stats.median(warmBuilds.map(_.skeletonSec)), "s",
      s"median of ${warmBuilds.size} warm builds")
    metric("build.redistribute_s", Stats.median(warmBuilds.map(_.redistributeSec)), "s")
    metric("build.shuffle_write_mb", Stats.median(shuffleMb.toSeq), "MB", s"median of ${shuffleMb.size} builds")
    metric("centroids.count", skel.groups.size - 1, "count")
    metric("skeleton.groups", skel.groups.size, "count")
    metric("skeleton.partitions", skel.numPartitions, "count")
    metric("skeleton.kb", index.stats.skeletonBytes / 1024.0, "KB")
    metric("trie.max_depth", skel.groups.flatMap(_.root.allNodes.map(_.depth)).max, "count")
    metric("layout.overflow_parts", parts.count(_ > params.capacity), "count", s"c = ${params.capacity}")
    metric("layout.max_part_rows", parts.max, "count")
    metric("layout.g0_rows", g0Rows, "count")
    metric("layout.nonempty_spark_partitions", sparkRows.count(_._2 > 0), "count")
    metric("layout.max_spark_partition_rows", sparkRows.values.max, "count")
    metric("plan.us", Stats.median(tr.map(_.planUs)), "us", s"n=${tr.size} traced queries")
    metric("plan.partitions", mean(tr.map(_.planParts.length.toDouble)), "count")
    metric("plan.rows", mean(plannedRows), "count")
    metric("plan.adaptive_expanded_frac",
      mean(tr.map(e => if (e.planParts.length > e.baseParts) 1.0 else 0.0)), "ratio")
    metric("scan.ms", Stats.median(tr.map(e => spanDur.getOrElse(e.scanSpan, 0L) / 1e6)), "ms")
    metric("scan.tasks_per_query", mean(perQuery.map(_._1)), "count")
    metric("scan.rows_touched_per_query", mean(touched), "count")
    metric("scan.useful_ratio", plannedRows.sum / math.max(1.0, touched.sum), "ratio")
    metric("spark.task_busy_ms_per_query", mean(perQuery.map(_._3)), "ms")
    metric("spark.task_wait_ms", mean(perQuery.map(_._4)), "ms", "per query, summed over its tasks")
    metric("spark.jobs_per_query", mean(perQuery.map(_._5)), "count")
    metric("query.short_frac", short.toDouble / math.max(1, attempted), "ratio",
      s"$short of $attempted queries returned fewer than ${w.k} ids")
    metric("dss.knn_ms", Stats.median(dssMs), "ms", s"median of ${dssMs.size}")
    metric("jvm.gc_ms", gc.toDouble, "ms", "during the timed phase")
    metric("trace.overhead_pct", 100 * (Stats.median(tracedMs) / Stats.median(untracedMs) - 1), "%",
      s"traced vs untraced p50, ${tracedMs.size} vs ${untracedMs.size} queries")

    val file = args.out.resolve(s"trace-${w.name}-${args.seed}.jsonl")
    Trace.write(file, spans)
    val self = Trace.selfTimes(spans)
    log(s"wrote ${spans.size} spans to $file; self time by span name:")
    for ((name, ss) <- spans.groupBy(_.name).toSeq.sortBy(-_._2.map(s => self(s.id)).sum))
      log(f"  $name%-18s n=${ss.size}%6d self ${ss.map(s => self(s.id)).sum / 1e6}%12.1f ms " +
        f"total ${ss.map(_.dur).sum / 1e6}%12.1f ms")
  }
}
