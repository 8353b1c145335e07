package repro.isax

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.scan.Dss
import repro.series.SeriesGen

class BaselinesSpec extends SparkSpec {

  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 2000, seed = 2).cache()
  private lazy val dpisax = DpiSax.index(spark, df, capacity = 200, alpha = 0.3, seed = 3)
  private lazy val tardis = Tardis.index(spark, df, capacity = 200, alpha = 0.3, seed = 3)
  private lazy val queries = Seq(5L, 900L, 1500L).map(id =>
    (id, SeriesGen.local("RandomWalk", id, 2)))

  // ---------------- DPiSAX ----------------

  test("DPiSAX: every record lands in exactly one partition") {
    assert(dpisax.data.count() == 2000)
    val parts = dpisax.data.select("part").distinct().collect().map(_.getInt(0))
    assert(parts.forall(p => p >= 0 && p < dpisax.router.numPartitions))
  }

  test("DPiSAX: splitting produces multiple partitions at this capacity") {
    assert(dpisax.router.numPartitions > 1)
  }

  test("DPiSAX: routing is deterministic and total") {
    val rng = new java.util.Random(1)
    for (_ <- 1 to 100) {
      val w = Array.fill(8)(rng.nextInt(256))
      val p = dpisax.router.route(w)
      assert(p >= 0 && p < dpisax.router.numPartitions)
      assert(p == dpisax.router.route(w))
    }
  }

  test("DPiSAX: a query routes to the same partition as its identical record") {
    for ((qid, q) <- queries) {
      val p = dpisax.router.route(BaselineCommon.wordOf(q))
      val stored = dpisax.data.filter(col("id") === qid).select("part").head().getInt(0)
      assert(p == stored)
    }
  }

  test("DPiSAX: kNN finds the query itself and returns sorted distances") {
    val (qid, q) = queries.head
    val res = BaselineCommon.knn(dpisax, q, 10)
    assert(res.head._1 == qid && res.head._2 == 0.0)
    assert(res.map(_._2) == res.map(_._2).sorted)
  }

  test("DPiSAX: split tree balance — no partition holds most of the data") {
    val sizes = dpisax.data.groupBy("part").count().collect().map(_.getLong(1))
    assert(sizes.max < 2000 * 0.8, s"max partition ${sizes.max}")
  }

  // ---------------- TARDIS ----------------

  test("TARDIS: every record lands in exactly one partition") {
    assert(tardis.data.count() == 2000)
    val parts = tardis.data.select("part").distinct().collect().map(_.getInt(0))
    assert(parts.forall(p => p >= 0 && p < tardis.router.numPartitions))
  }

  test("TARDIS: sigTree produces multiple partitions at this capacity") {
    assert(tardis.router.numPartitions > 1)
  }

  test("TARDIS: routing is deterministic and total (nearest-child fallback)") {
    val rng = new java.util.Random(2)
    for (_ <- 1 to 100) {
      val w = Array.fill(8)(rng.nextInt(256))
      val p = tardis.router.route(w)
      assert(p >= 0 && p < tardis.router.numPartitions)
      assert(p == tardis.router.route(w))
    }
  }

  test("TARDIS: a query routes with its identical record") {
    for ((qid, q) <- queries) {
      val p = tardis.router.route(BaselineCommon.wordOf(q))
      val stored = tardis.data.filter(col("id") === qid).select("part").head().getInt(0)
      assert(p == stored)
    }
  }

  test("TARDIS: kNN finds the query itself") {
    val (qid, q) = queries.head
    val res = BaselineCommon.knn(tardis, q, 10)
    assert(res.head._1 == qid && res.head._2 == 0.0)
  }

  test("TARDIS: identical words always share a leaf") {
    val rng = new java.util.Random(3)
    for (_ <- 1 to 50) {
      val w = Array.fill(8)(rng.nextInt(256))
      assert(tardis.router.route(w) == tardis.router.route(w.clone()))
    }
  }

  // ---------------- layout ----------------

  test("both baselines lay out Spark partition p as routed partition p") {
    for (b <- Seq(dpisax, tardis)) {
      assert(b.data.rdd.getNumPartitions == b.router.numPartitions, b.name)
      assert(b.data.filter(spark_partition_id() =!= col("part")).count() == 0, b.name)
    }
  }

  // ---------------- recall sanity ----------------

  test("both baselines achieve non-trivial recall on their own partition") {
    val k = 50
    val truth = Dss.knnBatch(spark, df, queries, k)
    def meanRecall(f: Array[Double] => Seq[Long]): Double = {
      val rs = queries.map { case (qid, q) =>
        repro.exp.Workloads.recall(f(q), truth(qid))
      }
      rs.sum / rs.size
    }
    val rDp = meanRecall(q => BaselineCommon.knn(dpisax, q, k).map(_._1))
    val rTd = meanRecall(q => BaselineCommon.knn(tardis, q, k).map(_._1))
    assert(rDp > 0.0)
    assert(rTd > 0.0)
  }

  test("baseline index structures serialise to small blobs (global index)") {
    assert(dpisax.indexBytes > 0 && dpisax.indexBytes < 5 * 1024 * 1024)
    assert(tardis.indexBytes > 0 && tardis.indexBytes < 5 * 1024 * 1024)
  }
}
