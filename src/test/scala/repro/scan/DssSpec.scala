package repro.scan

import repro.SparkSpec
import repro.core.Distances
import repro.series.SeriesGen

class DssSpec extends SparkSpec {

  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 500, seed = 6).cache()

  private def bruteForce(q: Array[Double], k: Int): Seq[(Long, Double)] = {
    (0L until 500L)
      .map(id => (id, Distances.euclidean(SeriesGen.local("RandomWalk", id, 6), q)))
      .sortBy { case (id, d) => (d, id) }
      .take(k)
  }

  test("Dss.knn equals a driver-side brute force") {
    val q = SeriesGen.local("RandomWalk", 42L, 6)
    val got = Dss.knn(df, q, 25)
    val exp = bruteForce(q, 25)
    assert(got.map(_._1) == exp.map(_._1))
    got.zip(exp).foreach { case ((_, a), (_, b)) => assert(math.abs(a - b) < 1e-9) }
  }

  test("Dss.knn of a dataset member returns itself first at distance 0") {
    val q = SeriesGen.local("RandomWalk", 7L, 6)
    val got = Dss.knn(df, q, 5)
    assert(got.head == ((7L, 0.0)))
  }

  test("Dss.knn distances are sorted ascending") {
    val q = SeriesGen.local("RandomWalk", 100L, 6)
    val got = Dss.knn(df, q, 50)
    assert(got.map(_._2) == got.map(_._2).sorted)
  }

  test("Dss.knnBatch matches per-query Dss.knn") {
    val qs = Seq(1L, 2L, 3L).map(id => (id, SeriesGen.local("RandomWalk", id, 6)))
    val batch = Dss.knnBatch(spark, df, qs, 20)
    for ((qid, q) <- qs)
      assert(batch(qid) == Dss.knn(df, q, 20).map(_._1))
  }

  test("Dss.knnBatch returns exactly k ids per query") {
    val qs = Seq(10L, 20L).map(id => (id, SeriesGen.local("RandomWalk", id, 6)))
    val batch = Dss.knnBatch(spark, df, qs, 15)
    assert(batch.keySet == Set(10L, 20L))
    batch.values.foreach(ids => assert(ids.size == 15 && ids.distinct.size == 15))
  }

  test("k larger than the dataset returns every record") {
    val q = SeriesGen.local("RandomWalk", 0L, 6)
    assert(Dss.knn(df, q, 1000).size == 500)
  }

  test("Dss exact top-k agrees with a DuckDB SQL formulation (oracle)") {
    import spark.implicits._
    // Small exploded instance: 60 series × 16 points, 2 queries, k = 5.
    val n = 16; val rows = 60; val k = 5
    val seriesRows = (0 until rows).flatMap { id =>
      SeriesGen.randomWalkLocal(id.toLong, n, 8).zipWithIndex.map {
        case (v, pos) => (id.toLong, pos, v)
      }
    }.toDF("id", "pos", "v")
    val queryRows = Seq(3L, 17L).flatMap { qid =>
      SeriesGen.randomWalkLocal(qid, n, 8).zipWithIndex.map {
        case (v, pos) => (qid, pos, v)
      }
    }.toDF("qid", "qpos", "qv")

    // 16-point series built from the same local generator as the exploded rows.
    val small = (0 until rows).map(id => (id.toLong, SeriesGen.randomWalkLocal(id.toLong, n, 8)))
      .toDF("id", "series")
    val sparkTopK = Seq(3L, 17L).flatMap { qid =>
      val q = SeriesGen.randomWalkLocal(qid, n, 8)
      Dss.knn(small, q, k).zipWithIndex.map { case ((id, _), r) => (qid, id, r + 1) }
    }.toDF("qid", "id", "rn")

    repro.Oracle.assertEquivalent(
      sparkTopK,
      s"""SELECT qid, id, rn FROM (
         |  SELECT s.qid, s.id,
         |         ROW_NUMBER() OVER (PARTITION BY s.qid ORDER BY s.d, s.id) AS rn
         |  FROM (
         |    SELECT q.qid AS qid, x.id AS id,
         |           SUM((CAST(x.v AS DOUBLE) - CAST(q.qv AS DOUBLE)) *
         |               (CAST(x.v AS DOUBLE) - CAST(q.qv AS DOUBLE))) AS d
         |    FROM series x JOIN queries q ON CAST(x.pos AS INT) = CAST(q.qpos AS INT)
         |    GROUP BY q.qid, x.id
         |  ) s
         |) WHERE rn <= $k""".stripMargin,
      "series" -> seriesRows, "queries" -> queryRows)
  }
}
