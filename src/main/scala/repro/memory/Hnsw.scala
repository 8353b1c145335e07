package repro.memory

import java.util.concurrent.atomic.AtomicReference

import repro.core.{Distances, SplitMix}

/** Hierarchical Navigable Small World graph (Malkov & Yashunin), built from
  * scratch as the ParlayANN-HNSW comparator of Table I.
  *
  * Multi-layer proximity graph: each point gets a geometric random level;
  * search greedily descends from the top layer and runs a best-first
  * beam (`ef`) on layer 0. Construction supports multi-threaded insertion
  * (ParlayANN's contribution is exactly such shared-memory parallel
  * construction): adjacency lists are immutable arrays behind an
  * `AtomicReference`, readers take lock-free snapshots, writers synchronise
  * per node.
  */
final class Hnsw(points: Array[Array[Double]], m: Int, efConstruction: Int, seed: Long) {
  require(points.nonEmpty, "HNSW needs at least one point")
  private val nPoints = points.length
  private val mMax0 = 2 * m
  private val mL = 1.0 / math.log(m.toDouble)

  /** Deterministic level per node. */
  private val levels: Array[Int] = Array.tabulate(nPoints) { i =>
    val u = ((SplitMix.mix(seed ^ i.toLong) >>> 11).toDouble / (1L << 53).toDouble).max(1e-12)
    math.min((-math.log(u) * mL).toInt, 31)
  }

  // adj(node)(level) — snapshot-readable neighbor lists.
  private val adj: Array[Array[AtomicReference[Array[Int]]]] =
    Array.tabulate(nPoints)(i => Array.fill(levels(i) + 1)(new AtomicReference(Array.empty[Int])))

  @volatile private var entryPoint: Int = -1
  @volatile private var topLevel: Int = -1
  private val globalLock = new Object

  private def dist(a: Int, q: Array[Double]): Double = Distances.squaredEuclidean(points(a), q)

  /** Best-first search on one layer; returns up to `ef` closest (dist, id)
    * pairs, closest first.
    */
  private def searchLayer(q: Array[Double], ep: Int, ef: Int, level: Int): Array[(Double, Int)] = {
    val visited = new java.util.HashSet[Integer]()
    val cand = new java.util.PriorityQueue[(Double, Int)](ef,
      (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(a._1, b._1))
    val result = new java.util.PriorityQueue[(Double, Int)](ef,
      (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(b._1, a._1))
    val d0 = dist(ep, q)
    cand.add((d0, ep)); result.add((d0, ep)); visited.add(ep)
    while (!cand.isEmpty) {
      val (cd, c) = cand.poll()
      if (cd > result.peek()._1 && result.size >= ef) {
        cand.clear()
      } else {
        val neigh = if (level < adj(c).length) adj(c)(level).get() else Array.empty[Int]
        var i = 0
        while (i < neigh.length) {
          val e = neigh(i)
          if (!visited.contains(e)) {
            visited.add(e)
            val d = dist(e, q)
            if (result.size < ef || d < result.peek()._1) {
              cand.add((d, e)); result.add((d, e))
              if (result.size > ef) result.poll()
            }
          }
          i += 1
        }
      }
    }
    result.toArray(new Array[(Double, Int)](0)).sortBy(_._1)
  }

  /** Greedy descent from `start` through the layers `from` down to
    * `above` + 1: on each layer, move to the closest neighbour of `q` until
    * none is closer. Returns the entry point for layer `above`.
    */
  private def descend(q: Array[Double], start: Int, from: Int, above: Int): Int = {
    var ep = start
    var lc = from
    while (lc > above) {
      var changed = true
      var best = dist(ep, q)
      while (changed) {
        changed = false
        val neigh = if (lc < adj(ep).length) adj(ep)(lc).get() else Array.empty[Int]
        var j = 0
        while (j < neigh.length) {
          val d = dist(neigh(j), q)
          if (d < best) { best = d; ep = neigh(j); changed = true }
          j += 1
        }
      }
      lc -= 1
    }
    ep
  }

  /** Insert one node (thread-safe). */
  private def insert(i: Int): Unit = {
    val q = points(i)
    val l = levels(i)
    globalLock.synchronized {
      if (entryPoint < 0) { entryPoint = i; topLevel = l; return }
    }
    var ep = descend(q, entryPoint, topLevel, l)
    // Beam insertion on the overlapping levels.
    var level = math.min(l, topLevel)
    while (level >= 0) {
      val found = searchLayer(q, ep, efConstruction, level)
      val maxM = if (level == 0) mMax0 else m
      val selected = found.take(m).map(_._2)
      setNeighbors(i, level, selected)
      for (s <- selected) addLink(s, level, i, maxM)
      if (found.nonEmpty) ep = found.head._2
      level -= 1
    }
    globalLock.synchronized {
      if (l > topLevel) { topLevel = l; entryPoint = i }
    }
  }

  private def setNeighbors(node: Int, level: Int, neigh: Array[Int]): Unit =
    adj(node)(level).set(neigh.filter(_ != node))

  /** Add a backward link, pruning to the `maxM` closest if overfull. */
  private def addLink(node: Int, level: Int, target: Int, maxM: Int): Unit =
    adj(node).synchronized {
      val cur = adj(node)(level).get()
      if (cur.contains(target) || node == target) ()
      else {
        val appended = cur :+ target
        val next =
          if (appended.length <= maxM) appended
          else appended.sortBy(e => Distances.squaredEuclidean(points(e), points(node))).take(maxM)
        adj(node)(level).set(next)
      }
    }

  /** Build the graph; `threads` > 1 gives ParlayANN-style parallel
    * construction (graph then depends on interleaving; tests use 1 thread).
    */
  def build(threads: Int): Unit = {
    insert(0)
    if (nPoints == 1) return
    if (threads <= 1) { (1 until nPoints).foreach(insert); return }
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    val futures = (1 until nPoints).map { i =>
      pool.submit(new Runnable { def run(): Unit = insert(i) })
    }
    futures.foreach(_.get())
    pool.shutdown()
  }

  /** Approximate kNN: ids (graph indices) of the k closest, closest first. */
  def search(q: Array[Double], k: Int, ef: Int): Seq[(Int, Double)] = {
    searchLayer(q, descend(q, entryPoint, topLevel, 0), math.max(ef, k), 0)
      .take(k)
      .map { case (d, id) => (id, math.sqrt(d)) }
      .toSeq
  }

  /** Total directed edges on layer 0 (connectivity diagnostics in tests). */
  def degreeSum0: Long = adj.map(a => a(0).get().length.toLong).sum
}
