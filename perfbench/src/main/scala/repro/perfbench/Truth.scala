package repro.perfbench

import java.io._
import java.nio.file.{Files, Path}
import java.util.concurrent.{Callable, Executors}
import repro.series.SeriesGen

/** Exact k-nearest neighbours by driver-local brute force over a copy of
  * the dataset made with `SeriesGen.local`, independent of the program's scan code (Dss), so that
  * a change to the scan cannot move the recall it is judged by.
  */
object Truth {

  /** Euclidean distance, summed in index order. */
  def ed(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < x.length) { val d = x(i) - y(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** (distance, id) order, the order every kNN result must follow. */
  def before(d1: Double, id1: Long, d2: Double, id2: Long): Boolean =
    d1 < d2 || (d1 == d2 && id1 < id2)

  /** Bounded max-heap keeping the k smallest (distance, id) pairs. */
  private final class TopK(k: Int) {
    val dist = new Array[Double](k)
    val ids = new Array[Long](k)
    var size = 0
    private def worse(a: Int, b: Int) = before(dist(b), ids(b), dist(a), ids(a))
    private def swap(a: Int, b: Int): Unit = {
      val d = dist(a); dist(a) = dist(b); dist(b) = d
      val i = ids(a); ids(a) = ids(b); ids(b) = i
    }
    def offer(d: Double, id: Long): Unit =
      if (size < k) {
        dist(size) = d; ids(size) = id; size += 1
        var c = size - 1
        while (c > 0 && worse(c, (c - 1) / 2)) { swap(c, (c - 1) / 2); c = (c - 1) / 2 }
      } else if (before(d, id, dist(0), ids(0))) {
        dist(0) = d; ids(0) = id
        var p = 0
        var done = false
        while (!done) {
          val l = 2 * p + 1; val r = l + 1
          var m = p
          if (l < size && worse(l, m)) m = l
          if (r < size && worse(r, m)) m = r
          if (m == p) done = true else { swap(p, m); p = m }
        }
      }
    def sorted: Seq[(Long, Double)] =
      (0 until size).map(i => (ids(i), dist(i))).sortWith((a, b) => before(a._2, a._1, b._2, b._1))
  }

  /** Driver-local copy of ids [0, n) of `dataset` generated with `seed`. */
  def local(dataset: String, n: Int, seed: Long, threads: Int): Array[Array[Double]] = {
    val out = new Array[Array[Double]](n)
    parallel(n, threads) { (from, until) =>
      var id = from
      while (id < until) { out(id) = SeriesGen.local(dataset, id, seed); id += 1 }
    }
    out
  }

  /** Run `f` on `threads` contiguous slices of [0, n) and wait for all. */
  def parallel(n: Int, threads: Int)(f: (Int, Int) => Unit): Unit = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val chunk = (n + threads - 1) / threads
      (0 until threads).map { t =>
        pool.submit(new Callable[Unit] {
          def call(): Unit = f(t * chunk, math.min(n, (t + 1) * chunk))
        })
      }.foreach(_.get())
    } finally pool.shutdown()
  }

  /** Exact top-`k` of every query over `data` (ids are array indices), in
    * (distance, id) order.
    */
  def exact(data: Array[Array[Double]], k: Int, queries: Seq[(Long, Array[Double])],
            threads: Int): Map[Long, Seq[(Long, Double)]] = {
    val qs = queries.map(_._2).toArray
    val parts = new java.util.concurrent.ConcurrentLinkedQueue[Array[TopK]]()
    parallel(data.length, threads) { (from, until) =>
      val heaps = Array.fill(qs.length)(new TopK(k))
      var id = from
      while (id < until) {
        var q = 0
        while (q < qs.length) { heaps(q).offer(ed(data(id), qs(q)), id); q += 1 }
        id += 1
      }
      parts.add(heaps)
    }
    queries.indices.map { q =>
      val merged = new TopK(k)
      parts.forEach(h => h(q).sorted.foreach { case (id, d) => merged.offer(d, id) })
      queries(q)._1 -> merged.sorted
    }.toMap
  }

  /** Ground truth cached on disk under `dir` per (dataset, n, seed, k,
    * query ids); `compute` runs only on a miss.
    */
  def cached(dir: Path, dataset: String, n: Int, seed: Long, k: Int, queryIds: Seq[Long])(
      compute: => Map[Long, Seq[(Long, Double)]]): Map[Long, Seq[(Long, Double)]] = {
    val key = java.util.Arrays.hashCode(queryIds.toArray)
    val file = dir.resolve(f"truth-$dataset-$n-$seed-$k-$key%08x.bin")
    if (Files.exists(file)) {
      val in = new DataInputStream(new BufferedInputStream(Files.newInputStream(file)))
      try {
        val stored = Seq.fill(in.readInt())(in.readLong())
        if (stored == queryIds)
          return stored.map(q => q -> Seq.fill(in.readInt())((in.readLong(), in.readDouble()))).toMap
      } finally in.close()
    }
    val truth = compute
    Files.createDirectories(dir)
    val tmp = Files.createTempFile(dir, "truth", ".tmp")
    val out = new DataOutputStream(new BufferedOutputStream(Files.newOutputStream(tmp)))
    try {
      out.writeInt(queryIds.size)
      queryIds.foreach(out.writeLong(_))
      queryIds.foreach { q =>
        out.writeInt(truth(q).size)
        truth(q).foreach { case (id, d) => out.writeLong(id); out.writeDouble(d) }
      }
    } finally out.close()
    Files.move(tmp, file, java.nio.file.StandardCopyOption.REPLACE_EXISTING,
      java.nio.file.StandardCopyOption.ATOMIC_MOVE)
    truth
  }
}
