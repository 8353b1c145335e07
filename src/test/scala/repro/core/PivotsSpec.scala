package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DoubleType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.series.SeriesGen

class PivotsSpec extends SparkSpec {

  private val vecs = Array(
    Array(0.0, 0.0), // pivot 0
    Array(1.0, 0.0), // pivot 1
    Array(0.0, 1.0), // pivot 2
    Array(5.0, 5.0), // pivot 3
  )

  test("rank-sensitive signature orders pivots by proximity (Def. 5)") {
    val ps = PivotSet(vecs, prefixLen = 3)
    assert(ps.rankSensitive(Array(0.1, 0.0)).toSeq == Seq(0, 1, 2))
    assert(ps.rankSensitive(Array(0.9, 0.0)).toSeq == Seq(1, 0, 2))
    assert(ps.rankSensitive(Array(4.0, 4.0)).toSeq == Seq(3, 1, 2))
  }

  test("rank-sensitive signature has exactly m entries") {
    for (m <- 1 to 4)
      assert(PivotSet(vecs, m).rankSensitive(Array(0.3, 0.7)).length == m)
  }

  test("rank-sensitive entries are distinct pivot ids") {
    val rs = PivotSet(vecs, 4).rankSensitive(Array(0.3, 0.7))
    assert(rs.distinct.length == rs.length)
    assert(rs.forall(p => p >= 0 && p < 4))
  }

  test("equidistant pivots are tie-broken by pivot id (determinism)") {
    val ps = PivotSet(vecs, 3)
    // (0.5, 0) is equidistant from pivots 0 and 1 → 0 first.
    assert(ps.rankSensitive(Array(0.5, 0.0)).take(2).toSeq == Seq(0, 1))
  }

  /** Reference signature: a full sort of every pivot id by
    * (`java.lang.Double.compare` on squared distance, then id).
    */
  private def fullSortSignature(ps: PivotSet, paa: Array[Double]): Seq[Int] = {
    val d = ps.vectors.map(Distances.squaredEuclidean(paa, _))
    ps.vectors.indices.sorted(new Ordering[Int] {
      def compare(a: Int, b: Int): Int = {
        val c = java.lang.Double.compare(d(a), d(b))
        if (c != 0) c else Integer.compare(a, b)
      }
    }).take(ps.prefixLen)
  }

  test("rank-sensitive selection equals a full sort, ties and NaN included") {
    // Coordinates from a few small values (plus an occasional NaN) and
    // pivots copied from earlier pivots force equal distances.
    val coord = Gen.frequency(20 -> Gen.choose(-2, 2).map(_.toDouble), 1 -> Gen.const(Double.NaN))
    val inputs = for {
      dim <- Gen.choose(1, 4)
      r <- Gen.choose(1, 30)
      fresh <- Gen.listOfN(r, Gen.listOfN(dim, coord).map(_.toArray))
      copyOf <- Gen.listOfN(r, Gen.frequency(2 -> Gen.const(-1), 1 -> Gen.choose(0, r - 1)))
      m <- Gen.oneOf(Gen.const(1), Gen.const(r), Gen.choose(1, r))
      paa <- Gen.listOfN(dim, coord).map(_.toArray)
    } yield {
      val vecs = fresh.toArray
      for (i <- vecs.indices if copyOf(i) >= 0 && copyOf(i) < i) vecs(i) = vecs(copyOf(i)).clone()
      (PivotSet(vecs, m), paa)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500),
      Prop.forAll(inputs) { case (ps, paa) => ps.rankSensitive(paa).toSeq == fullSortSignature(ps, paa) })
    assert(res.passed, res.status.toString)
  }

  test("rank-insensitive signature is the id-sorted rank-sensitive set (Def. 6)") {
    val ps = PivotSet(vecs, 3)
    val (rs, ri) = ps.dual(Array(0.9, 0.0))
    assert(ri.toSeq == rs.sorted.toSeq)
    assert(ri.toSet == rs.toSet)
  }

  test("paper Figure 4: close objects share the rank-insensitive signature") {
    // Two points on either side of the bisector of pivots 0 and 1.
    val ps = PivotSet(vecs, 2)
    val (rsX, riX) = ps.dual(Array(0.45, 0.0))
    val (rsY, riY) = ps.dual(Array(0.55, 0.0))
    assert(rsX.toSeq != rsY.toSeq) // rank-sensitive differs (fine-grained)
    assert(riX.toSeq == riY.toSeq) // rank-insensitive agrees (coarse-grained)
  }

  test("the driver-side rank-insensitive fold counts the id-sorted signatures") {
    // Rank-sensitive signatures drawn as permutations of a few pivot sets,
    // so several P⁴→ share one P⁴⇉ and a P⁴→ repeats.
    val signatures = for {
      m <- Gen.choose(1, 4)
      sets <- Gen.nonEmptyListOf(Gen.pick(m, 0 until 8).map(_.toList))
      rs <- Gen.listOf(for {
        set <- Gen.oneOf(sets)
        seed <- Gen.long
      } yield new scala.util.Random(seed).shuffle(set))
    } yield rs
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300),
      Prop.forAll(signatures) { rs =>
        val rsAgg = rs.groupBy(identity).map { case (sig, xs) =>
          Centroids.SigFreq(sig.toArray, xs.size.toLong) }.toSeq
        val riAgg = PivotSet.rankInsensitiveAgg(rsAgg).map(sf => sf.sig.toList -> sf.freq)
        val expected = rs.groupBy(_.sorted).map { case (ri, xs) => ri -> xs.size.toLong }
        riAgg.size == expected.size && riAgg.toMap == expected
      })
    assert(res.passed, res.status.toString)
  }

  test("PivotSet rejects prefix length out of range") {
    intercept[IllegalArgumentException](PivotSet(vecs, 0))
    intercept[IllegalArgumentException](PivotSet(vecs, 5))
  }

  test("PivotSet rejects pivots of different widths") {
    intercept[IllegalArgumentException](PivotSet(vecs :+ Array(1.0, 2.0, 3.0), 2))
    intercept[IllegalArgumentException](PivotSet(Array(Array(1.0), Array.empty[Double]), 1))
  }

  test("rankSensitive rejects a PAA of another width than the pivots'") {
    val ps = PivotSet(vecs, 2)
    for (paa <- Seq(Array(0.5), Array(0.5, 0.5, 0.5))) {
      val e = intercept[IllegalArgumentException](ps.rankSensitive(paa))
      assert(e.getMessage.contains(s"PAA width ${paa.length} differs from the pivots' width 2"))
    }
  }

  test("select rejects a sample whose PAA rows differ in width") {
    val schema = StructType(Seq(StructField("paa", ArrayType(DoubleType))))
    val rows = Seq(Row(Array(1.0, 2.0)), Row(Array(3.0)), Row(Array(4.0, 5.0)))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
    intercept[IllegalArgumentException](Pivots.select(df, "paa", rows.size, 1, seed = 1))
  }

  test("select picks r distinct pivots deterministically in the seed") {
    val df = SeriesGen.generate(spark, "RandomWalk", 200, seed = 3)
      .withColumn("paa", Paa.paaUdf(16)(col("series")))
    val a = Pivots.select(df, "paa", 10, 4, seed = 1)
    val b = Pivots.select(df, "paa", 10, 4, seed = 1)
    val c = Pivots.select(df, "paa", 10, 4, seed = 2)
    assert(a.vectors.length == 10 && a.prefixLen == 4)
    assert(a.vectors.map(_.toSeq).toSeq == b.vectors.map(_.toSeq).toSeq)
    assert(a.vectors.map(_.toSeq).toSeq != c.vectors.map(_.toSeq).toSeq)
  }

  test("select picks the rows that ordering by the seeded hash expression picks") {
    // Minus repeated vectors, which select drops.
    // The earlier formulation, kept as the reference: Spark's top-r orders
    // by the hash expression, evaluated inside its comparator.
    def reference(df: DataFrame, r: Int, seed: Long): Seq[Seq[Double]] =
      df.select("paa").orderBy(xxhash64(col("paa").cast("string"), lit(seed))).limit(r)
        .collect().map(_.getSeq[Double](0)).toSeq
    // Rows drawn from a small pool, so PAA rows repeat.
    val samples = for {
      dim <- Gen.choose(1, 4)
      pool <- Gen.listOfN(6, Gen.listOfN(dim, Gen.choose(-20, 20).map(_ / 4.0)))
      rows <- Gen.nonEmptyListOf(Gen.oneOf(pool)).map(_.take(40))
      slices <- Gen.choose(1, 4)
      seed <- Gen.choose(0L, 1000L)
    } yield (rows, slices, seed)
    val schema = StructType(Seq(StructField("paa", ArrayType(DoubleType))))
    // No shrinking: it would break the equal dimension of the pool's rows.
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(25),
      Prop.forAllNoShrink(samples) { case (rows, slices, seed) =>
        val n = rows.size
        val df = spark.createDataFrame(
          spark.sparkContext.parallelize(rows.map(v => Row(v.toArray)), slices), schema)
        Seq(1, math.max(1, n / 2), n, n + 3).forall { r =>
          val ps = Pivots.select(df, "paa", r, 2, seed)
          // The pool has no NaN and no -0.0, so Seq equality is bit equality.
          val picked = reference(df, r, seed).distinct
          ps.vectors.map(_.toSeq).toSeq == picked && ps.prefixLen == math.min(2, picked.size)
        }
      })
    assert(res.passed, res.status.toString)
  }

  test("select keeps one pivot per distinct vector: identical rows give one pivot") {
    val schema = StructType(Seq(StructField("paa", ArrayType(DoubleType))))
    val rows = Seq.fill(50)(Row(Array(1.5, -2.0, 0.25)))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema)
    val ps = Pivots.select(df, "paa", 20, 4, seed = 1)
    assert(ps.vectors.length == 1 && ps.prefixLen == 1)
    assert(ps.vectors.head.toSeq == Seq(1.5, -2.0, 0.25))
  }

  test("select caps the prefix length at the pivot count") {
    val df = SeriesGen.generate(spark, "RandomWalk", 20, seed = 3)
      .withColumn("paa", Paa.paaUdf(16)(col("series")))
    assert(Pivots.select(df, "paa", 5, 10, seed = 1).prefixLen == 5)
  }

  test("nearest pivot of a pivot's own location is itself") {
    val ps = PivotSet(vecs, 1)
    for (i <- vecs.indices)
      assert(ps.rankSensitive(vecs(i)).head == i)
  }
}
