package repro.core

import org.apache.spark.SparkException
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.Distances.ExpDecay
import repro.scan.Dss
import repro.series.SeriesGen

class ClimberQuerySpec extends SparkSpec {

  private val params = ClimberParams(paaW = 16, numPivots = 24, prefixLen = 4,
    alpha = 0.3, capacity = 200, seed = 7)
  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 2000, seed = 1).cache()
  private lazy val index = ClimberIndex.build(spark, df, params)

  // ---------------- Skeleton navigation (Algorithm 3) ----------------

  /** A hand-built two-group skeleton mirroring Example 2 / Figure 5. */
  private lazy val manualSkeleton: IndexSkeleton = {
    val riAgg = Seq(
      Centroids.SigFreq(Array(1, 2, 3), 3000),
      Centroids.SigFreq(Array(4, 6, 7), 5250),
    )
    val rsAgg = Seq(
      Centroids.SigFreq(Array(1, 2, 3), 3000),
      Centroids.SigFreq(Array(6, 2, 7), 1800),
      Centroids.SigFreq(Array(6, 5, 1), 1900),
      Centroids.SigFreq(Array(4, 6, 7), 900),
      Centroids.SigFreq(Array(7, 6, 4), 650),
    )
    IndexSkeleton.build(riAgg, rsAgg, alpha = 1.0, capacity = 3000, epsilon = 2,
      decay = ExpDecay(0.5))
  }

  test("Example 2: the query selects the best group by OD") {
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val plan = ClimberQuery.plan(manualSkeleton, rs, ri, 1, ClimberQuery.Knn)
    val g = manualSkeleton.groups(plan.groupIds.head)
    assert(g.centroid.toSeq == Seq(4, 6, 7)) // OD 1 beats OD 2
  }

  test("Example 2: trie navigation reaches the deepest matching node") {
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val plan = ClimberQuery.plan(manualSkeleton, rs, ri, 1, ClimberQuery.Knn)
    assert(plan.nodeDepth == 2)
    assert(plan.nodeSize == 1800L)
  }

  test("a query with zero centroid overlap routes to G0") {
    val plan =
      ClimberQuery.plan(manualSkeleton, Array(10, 11, 12), Array(10, 11, 12), 1, ClimberQuery.Knn)
    assert(plan.groupIds == Seq(0))
  }

  test("plan partitions are valid skeleton partitions") {
    val plan = ClimberQuery.plan(manualSkeleton, Array(6, 5, 1), Array(1, 5, 6), 1, ClimberQuery.Knn)
    assert(plan.partitions.nonEmpty)
    assert(plan.partitions.forall(p => p >= 0 && p < manualSkeleton.numPartitions))
  }

  test("adaptive plan equals the base plan when the node already covers k") {
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val base = ClimberQuery.plan(manualSkeleton, rs, ri, 1, ClimberQuery.Knn)
    val ad = ClimberQuery.plan(manualSkeleton, rs, ri, 500, ClimberQuery.Adaptive(4))
    assert(ad.partitions.toSeq == base.partitions.toSeq)
  }

  test("adaptive plan expands when the node holds fewer than k (§VI)") {
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val base = ClimberQuery.plan(manualSkeleton, rs, ri, 1, ClimberQuery.Knn)
    val ad = ClimberQuery.plan(manualSkeleton, rs, ri, 2500, ClimberQuery.Adaptive(4))
    assert(ad.partitions.length >= base.partitions.length)
    assert(base.partitions.toSet.subsetOf(ad.partitions.toSet))
  }

  test("adaptive plan respects the partition cap factor") {
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val base = ClimberQuery.plan(manualSkeleton, rs, ri, 1, ClimberQuery.Knn)
    for (factor <- Seq(2, 4)) {
      val ad = ClimberQuery.plan(manualSkeleton, rs, ri, 100000, ClimberQuery.Adaptive(factor))
      assert(ad.partitions.length <= factor * base.partitions.length)
    }
  }

  test("adaptive plan walks on to the next-ranked group when k exceeds the best group") {
    // Group <4,6,7> estimates 5250 records; the next group, <1,2,3> at OD 2,
    // is a root leaf of 3000.
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val next = manualSkeleton.groups.find(_.centroid.toSeq == Seq(1, 2, 3)).get
    val ad = ClimberQuery.plan(manualSkeleton, rs, ri, 6000, ClimberQuery.Adaptive(4))
    assert(ad.groupIds.contains(next.id))
    assert(next.root.partitions.toSet.subsetOf(ad.partitions.toSet))
  }

  test("2X plan partitions are a subset of the 4X plan partitions") {
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val p2 = ClimberQuery.plan(manualSkeleton, rs, ri, 100000, ClimberQuery.Adaptive(2))
    val p4 = ClimberQuery.plan(manualSkeleton, rs, ri, 100000, ClimberQuery.Adaptive(4))
    assert(p2.partitions.toSet.subsetOf(p4.partitions.toSet))
  }

  test("OD-Smallest covers every partition of the tied groups") {
    val rs = Array(6, 2, 7); val ri = Array(2, 6, 7)
    val od = ClimberQuery.plan(manualSkeleton, rs, ri, 1, ClimberQuery.OdSmallest)
    val base = ClimberQuery.plan(manualSkeleton, rs, ri, 1, ClimberQuery.Knn)
    assert(base.partitions.toSet.subsetOf(od.partitions.toSet))
    val g = manualSkeleton.groups.find(_.centroid.toSeq == Seq(4, 6, 7)).get
    assert(od.partitions.toSet == g.root.partitions.toSet)
  }

  test("the variants are cuts of one ranked list on the built index") {
    // Queries from the data and from other seeds; K from below a partition
    // to beyond the whole dataset.
    val queryGen = for {
      id <- Gen.choose(0L, 1999L)
      seed <- Gen.oneOf(1L, 2L)
    } yield (id, SeriesGen.local("RandomWalk", id, seed))
    val sk = index.skeleton
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100),
      Prop.forAll(queryGen, Gen.oneOf(50, 400, 2000, 2001), Gen.oneOf(2, 4)) {
        case ((qid, q), k, f) =>
          val (rs, ri) = index.pivots.dual(Paa.of(q, index.params.paaW))
          val knn = ClimberQuery.plan(sk, rs, ri, k, ClimberQuery.Knn, qid).partitions.toSet
          val ad = ClimberQuery.plan(sk, rs, ri, k, ClimberQuery.Adaptive(f), qid).partitions.toSet
          val cap = f * knn.size
          // The estimated sizes of the nodes the plan could have taken fall
          // short of K only when no further node fits under the cap.
          val cands = ClimberQuery.ranked(sk, rs, ri)
          val held = cands.filter(_.node.partitions.forall(ad)).map(_.node.size).sum
          val fits = cands.exists { c =>
            val fresh = c.node.partitions.count(!ad(_))
            fresh > 0 && ad.size + fresh <= cap
          }
          // OD-Smallest: every partition of the groups at the minimal OD.
          val od = sk.centroids.map(Distances.overlap(_, ri))
          val minOd = (od :+ ri.length).min
          val odGroups = if (minOd == ri.length) Seq(0) else od.indices.filter(od(_) == minOd).map(_ + 1)
          knn.subsetOf(ad) && ad.size <= cap && (held >= k || !fits) &&
            ClimberQuery.plan(sk, rs, ri, k, ClimberQuery.OdSmallest).partitions.toSet ==
              odGroups.flatMap(sk.groups(_).root.partitions).toSet
      })
    assert(res.passed, res.status.toString)
  }

  // ---------------- End-to-end kNN on real data ----------------

  private lazy val queries = Seq(3L, 444L, 1200L).map(id =>
    (id, SeriesGen.local("RandomWalk", id, 1)))

  test("kNN returns k results sorted by distance") {
    val (qid, q) = queries.head
    val res = ClimberQuery.knn(index, q, 20, ClimberQuery.Knn, qid)
    assert(res.size == 20)
    assert(res.map(_._2) == res.map(_._2).sorted)
  }

  test("a query drawn from the dataset finds itself at distance 0") {
    for ((qid, q) <- queries) {
      val res = ClimberQuery.knn(index, q, 10, ClimberQuery.Adaptive(4), qid)
      assert(res.head._1 == qid, s"query $qid did not find itself")
      assert(res.head._2 == 0.0)
    }
  }

  test("recall of Adaptive-4X beats a random partition's expected recall") {
    val truth = Dss.knnBatch(spark, df, queries, 50)
    val recalls = queries.map { case (qid, q) =>
      val ids = ClimberQuery.knn(index, q, 50, ClimberQuery.Adaptive(4), qid).map(_._1)
      repro.exp.Workloads.recall(ids, truth(qid))
    }
    val mean = recalls.sum / recalls.size
    // A random partition of capacity ~200 out of 2000 records would give ~0.1.
    assert(mean > 0.3, s"mean recall $mean")
  }

  test("OD-Smallest recall is at least that of CLIMBER-kNN") {
    val truth = Dss.knnBatch(spark, df, queries, 50)
    val rKnn = queries.map { case (qid, q) =>
      repro.exp.Workloads.recall(
        ClimberQuery.knn(index, q, 50, ClimberQuery.Knn, qid).map(_._1), truth(qid))
    }
    val rOd = queries.map { case (qid, q) =>
      repro.exp.Workloads.recall(
        ClimberQuery.knn(index, q, 50, ClimberQuery.OdSmallest, qid).map(_._1), truth(qid))
    }
    assert(rOd.sum >= rKnn.sum - 1e-9)
  }

  test("scanTopK on all partitions equals the exact Dss answer") {
    val (qid, q) = queries(1)
    val allParts = (0 until index.skeleton.numPartitions).toArray
    val full = ClimberQuery.scanTopK(index.data, "part", allParts, q, 30)
    val exact = Dss.knn(df, q, 30)
    assert(full.map(_._1) == exact.map(_._1))
  }

  test("pruned scanTopK equals Dss over the partition filter on random plans") {
    val rng = new java.util.Random(11)
    val np = index.skeleton.numPartitions
    // Dropping one partition's rows keeps the layout and leaves it empty.
    val empty = rng.nextInt(np)
    val holed = index.data.filter(col("part") =!= empty)
    for (trial <- 0 until 12) {
      val data = if (trial % 3 == 0) holed else index.data
      val picked = Array.fill(1 + rng.nextInt(4))(rng.nextInt(np))
      // Duplicate ids, and the emptied partition in the holed trials.
      val parts = picked ++ picked.take(1) ++ (if (trial % 3 == 0) Array(empty) else Array.empty[Int])
      val q = SeriesGen.local("RandomWalk", rng.nextInt(2000).toLong, 1)
      // K from 1 up to more than the whole dataset holds.
      val k = Seq(1, 7, 60, 3000)(trial % 4)
      val pruned = ClimberQuery.scanTopK(data, "part", parts, q, k)
      val filtered = Dss.knn(data.filter(col("part").isin(parts.toSeq: _*)), q, k)
      assert(pruned == filtered, s"trial $trial, partitions ${parts.toSeq}, k $k")
    }
  }

  test("scanTopK returns min(K, rows in the planned partitions) rows, closest first") {
    val rng = new java.util.Random(5)
    val np = index.skeleton.numPartitions
    val sizes = index.data.groupBy("part").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    for (_ <- 0 until 6) {
      val parts = Array.fill(1 + rng.nextInt(3))(rng.nextInt(np)).distinct
      val rows = parts.map(sizes.getOrElse(_, 0L)).sum.toInt
      val q = SeriesGen.local("RandomWalk", rng.nextInt(2000).toLong, 1)
      for (k <- Seq(1, rows, rows + 1, 3000) if k >= 1) {
        val got = ClimberQuery.scanTopK(index.data, "part", parts, q, k)
        assert(got.size == math.min(k, rows), s"partitions ${parts.toSeq}, k $k")
        assert(got.map(_._2) == got.map(_._2).sorted)
      }
    }
  }

  test("scanTopK rejects partition ids outside the layout") {
    val q = queries.head._2
    for (bad <- Seq(-1, index.skeleton.numPartitions))
      intercept[IllegalArgumentException](ClimberQuery.scanTopK(index.data, "part", Array(0, bad), q, 5))
  }

  test("scanTopK rejects a layout column other than part") {
    intercept[IllegalArgumentException](
      ClimberQuery.scanTopK(index.data, "group", Array(0), queries.head._2, 5))
  }

  test("scanTopK over data not laid out by partition fails instead of answering") {
    val q = queries.head._2
    val hashed = index.data.repartition(index.skeleton.numPartitions, col("id"))
    val e = intercept[SparkException](
      ClimberQuery.scanTopK(hashed, "part", (0 until index.skeleton.numPartitions).toArray, q, 5))
    assert(e.getMessage.contains("not laid out by part"), e.getMessage)
  }

  test("one scanTopK runs one Spark job with one task per distinct partition") {
    val sc = spark.sparkContext
    val key = "repro.test.op"
    val stageTag = new java.util.concurrent.ConcurrentHashMap[Int, String]()
    val jobs = new java.util.concurrent.ConcurrentHashMap[String, Int]()
    val tasks = new java.util.concurrent.ConcurrentHashMap[String, Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(key))).foreach { tag =>
          jobs.merge(tag, 1, _ + _)
          e.stageIds.foreach(stageTag.put(_, tag))
        }
      // Only tasks that run count: a cached index's parent stages are skipped.
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(stageTag.get(e.stageId)).foreach(tasks.merge(_, 1, _ + _))
    }
    def tagged[T](tag: String)(f: => T): T = {
      sc.setLocalProperty(key, tag)
      try f finally sc.setLocalProperty(key, null)
    }
    sc.addSparkListener(listener)
    try {
      val parts = Array(0, index.skeleton.numPartitions - 1, 0)
      tagged("scan")(ClimberQuery.scanTopK(index.data, "part", parts, queries.head._2, 10))
      // Listener events arrive in order: once the drain task is seen, so is the scan.
      tagged("drain")(sc.parallelize(Seq(1), 1).count())
      val deadline = System.currentTimeMillis() + 30000
      while (!tasks.containsKey("drain") && System.currentTimeMillis() < deadline) Thread.sleep(5)
      assert(jobs.get("scan") == 1)
      assert(tasks.get("scan") == parts.distinct.length)
    } finally sc.removeSparkListener(listener)
  }

  test("planFor dispatches all variants") {
    val (qid, q) = queries.head
    val variants = Seq(ClimberQuery.Knn, ClimberQuery.Adaptive(2), ClimberQuery.Adaptive(4),
      ClimberQuery.OdSmallest)
    for (v <- variants) {
      val p = ClimberQuery.planFor(index, q, 50, v, qid)
      assert(p.partitions.nonEmpty)
    }
  }

  test("variant labels match the paper's names") {
    assert(ClimberQuery.Knn.label == "CLIMBER-kNN")
    assert(ClimberQuery.Adaptive(2).label == "CLIMBER-kNN-Adaptive-2X")
    assert(ClimberQuery.Adaptive(4).label == "CLIMBER-kNN-Adaptive-4X")
  }
}
