package repro.scan

import org.apache.spark.sql.functions.col
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.{ClimberQuery, Distances}
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

  test("top-K over P partitions equals a driver-side sort, ties, NaN and empty partitions included") {
    import spark.implicits._
    // Coordinates from a few small values and series copied from earlier
    // rows force equal distances, so ties fall to id order; ids are drawn at
    // random so that id order is neither row nor partition order.
    val coord = Gen.choose(-1, 1).map(_.toDouble)
    val cases = for {
      np <- Gen.choose(1, 6)
      dim <- Gen.choose(1, 3)
      n <- Gen.choose(3, 24)
      fresh <- Gen.listOfN(n, Gen.listOfN(dim, coord).map(_.toArray))
      copyOf <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(-1), 1 -> Gen.choose(0, n - 1)))
      ids <- Gen.listOfN(n, Gen.choose(0L, 999L)).map(_.zipWithIndex.map { case (r, i) => r * 32 + i })
      empty <- Gen.choose(0, np - 1)
      parts <- Gen.listOfN(n, Gen.choose(0, 5))
      nan <- Gen.choose(2, n - 1)
      queries <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.listOfN(dim, coord).map(_.toArray)))
      k <- Gen.oneOf(Gen.const(1), Gen.choose(1, n), Gen.const(n), Gen.const(n + 5))
      subsets <- Gen.listOfN(2, Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, np - 1)))
    } yield {
      val series = fresh.toArray
      for (i <- series.indices if copyOf(i) >= 0 && copyOf(i) < i) series(i) = series(copyOf(i)).clone()
      // Partition `empty` holds no row unless it is the only partition.
      val live = (0 until np).filter(p => np == 1 || p != empty)
      val part = parts.toArray.map(p => live(p % live.size))
      // Rows 0 and 1 are exact duplicates, in different partitions when two hold rows.
      series(1) = series(0).clone()
      part(1) = live((live.indexOf(part(0)) + 1) % live.size)
      series(nan) = series(nan).clone()
      series(nan)(0) = Double.NaN
      (np, series.indices.map(i => (ids(i), series(i), part(i))), queries.toArray, k, subsets)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(25),
      Prop.forAllNoShrink(cases) { case (np, rows, queries, k, subsets) =>
        val df = rows.toDF("id", "series", "part").repartitionById(np, col("part")).cache()
        // The reference: every row's distance, sorted on the driver.
        def expected(q: Array[Double], in: Int => Boolean): Seq[(Long, Long)] = rows
          .collect { case (id, s, p) if in(p) => (id, Distances.euclidean(s, q)) }
          .sortWith { case ((ia, da), (ib, db)) =>
            val c = java.lang.Double.compare(da, db); c < 0 || (c == 0 && ia < ib)
          }
          .take(k).map { case (id, d) => (id, java.lang.Double.doubleToLongBits(d)) }
        def bits(got: Seq[(Long, Double)]): Seq[(Long, Long)] =
          got.map { case (id, d) => (id, java.lang.Double.doubleToLongBits(d)) }
        val qs = queries.indices.map(i => (i.toLong, queries(i)))
        val batch = Dss.knnBatch(spark, df, qs, k)
        val ok = qs.forall { case (qid, q) =>
          val all = expected(q, _ => true)
          batch(qid) == all.map(_._1) && bits(Dss.knn(df, q, k)) == all &&
            subsets.forall(sub => bits(ClimberQuery.scanTopK(df, "part", sub.toArray, q, k)) ==
              expected(q, sub.contains))
        }
        df.unpersist()
        ok
      })
    assert(res.passed, res.status.toString)
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
