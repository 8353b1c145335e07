package repro.scan

import org.apache.spark.SparkException
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{GenericInternalRow, UnsafeArrayData}
import org.apache.spark.sql.catalyst.util.GenericArrayData
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

  private def bits(got: Seq[(Long, Double)]): Seq[(Long, Long)] =
    got.map { case (id, d) => (id, java.lang.Double.doubleToLongBits(d)) }

  test("top-K of one large partition equals a driver-side sort, duplicates and NaN included") {
    import spark.implicits._
    // Up to 5,000 rows in one partition, so the buffer is cut to K again and
    // again and the partial quicksort partitions long ranges. Coordinates
    // from {-1, 0, 1} and rows copied from earlier rows make many exact ties.
    val cases = for {
      n <- Gen.choose(2, 5000)
      dim <- Gen.choose(1, 4)
      nq <- Gen.choose(1, 3)
      k <- Gen.oneOf(Gen.const(1), Gen.choose(1, n - 1), Gen.const(n), Gen.const(n + 5))
      seed <- Gen.long
    } yield (n, dim, nq, k, seed)
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(20),
      Prop.forAllNoShrink(cases) { case (n, dim, nq, k, seed) =>
        val rnd = new scala.util.Random(seed)
        def fresh(): Array[Double] = Array.fill(dim)((rnd.nextInt(3) - 1).toDouble)
        val series = new Array[Array[Double]](n)
        for (i <- 0 until n)
          series(i) = if (i > 0 && rnd.nextBoolean()) series(rnd.nextInt(i)).clone() else fresh()
        series(rnd.nextInt(n)) = Array.fill(dim)(Double.NaN)
        val ids = Array.tabulate(n)(i => rnd.nextInt(1000).toLong * 8192 + i)
        val queries = Array.fill(nq)(fresh())
        val one = series.indices.map(i => (ids(i), series(i))).toDF("id", "series").coalesce(1)
        val got = Dss.scan(one, queries, k)
        queries.indices.forall { q =>
          val exp = series.indices.map(i => (ids(i), Distances.euclidean(series(i), queries(q))))
            .sortWith { case ((ia, da), (ib, db)) =>
              val c = java.lang.Double.compare(da, db); c < 0 || (c == 0 && ia < ib)
            }
            .take(k)
          bits(got(q)) == bits(exp)
        }
      })
    assert(res.passed, res.status.toString)
  }

  test("distance keys order as java.lang.Double.compare and decode to the same bits") {
    val nans = Seq(0x7ff8000000000000L, 0x7ff0000000000001L, 0x7fffffffffffffffL,
      0xfff8000000000000L, 0xffffffffffffffffL).map(java.lang.Double.longBitsToDouble)
    val xs = Seq(Double.NegativeInfinity, -Double.MaxValue, -1.5, -Double.MinPositiveValue, -0.0,
      0.0, Double.MinPositiveValue, 1.5, Double.MaxValue, Double.PositiveInfinity) ++ nans
    for (a <- xs; b <- xs)
      assert(java.lang.Long.compare(KeySort.key(a), KeySort.key(b)).sign ==
        java.lang.Double.compare(a, b).sign, s"$a vs $b")
    for (x <- xs)
      assert(java.lang.Double.doubleToLongBits(KeySort.distance(KeySort.key(x))) ==
        java.lang.Double.doubleToLongBits(x), s"$x")
  }

  test("a stored series whose length differs from the query's fails the job") {
    import spark.implicits._
    val bad = Seq((0L, Array(1.0, 2.0, 3.0)), (1L, Array(1.0, 2.0))).toDF("id", "series")
    val e = intercept[SparkException](Dss.knn(bad, Array(0.0, 0.0, 0.0), 1))
    assert(e.getMessage.contains("length mismatch 2 vs 3"), e.getMessage)
  }

  test("series held in another ArrayData than UnsafeArrayData give the same bits") {
    val seriesIdx = df.schema.fieldIndex("series")
    assert(df.queryExecution.toRdd.map(_.getArray(seriesIdx).isInstanceOf[UnsafeArrayData])
      .collect().forall(identity), "the cached rows are expected to hold UnsafeArrayData")
    val generic = spark.sparkContext.parallelize[InternalRow]((0L until 500L).map(id =>
      new GenericInternalRow(Array[Any](id, new GenericArrayData(SeriesGen.local("RandomWalk", id, 6))))), 3)
    val qs = Array(SeriesGen.local("RandomWalk", 42L, 6), SeriesGen.local("RandomWalk", 7L, 6))
    val got = Dss.rank(generic, new Dss.Rank(0, 1, -1, qs, 40), 0 until 3)
    val exp = Dss.scan(df, qs, 40)
    assert(got.map(bits).toSeq == exp.map(bits).toSeq)
  }

  test("the task runJob gets is a named Serializable class, which closure cleaning skips") {
    // `topK` runs its job through `Dss.rank`, whose task parameter is a `Rank`.
    val task = new Dss.Rank(0, 1, -1, Array(Array(0.0)), 1)
    val cls = task.getClass
    assert(task.isInstanceOf[java.io.Serializable])
    assert(!cls.isSynthetic && !cls.getName.contains("$anonfun$") && !cls.getName.contains("$Lambda"),
      cls.getName)
    // Spark recognises a Scala lambda by its serialization proxy.
    assert(!cls.getDeclaredMethods.exists(_.getName == "writeReplace"))
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
