package repro

import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.functions.{col, udf}

import repro.core.{ClimberIndex, ClimberParams, ClimberQuery, SplitMix}
import repro.isax.{BaselineCommon, BaselineIndex, DpiSax, Tardis}
import repro.memory.Hnsw
import repro.series.SeriesGen

/** Exact outputs pinned as constants: generated series, Algorithm 1's
  * tie-break, the selected pivots, the serialized skeleton, index placement,
  * query plans, kNN results, the DPiSAX and TARDIS routers, layouts and kNN
  * results, and HNSW search.
  * A refactor that moves any of them by one bit fails here.
  */
class PinSpec extends SparkSpec {

  test("generated series are pinned for every dataset") {
    val got = SeriesGen.Datasets.map(ds =>
      ds -> (0L to 3L).map(id => java.util.Arrays.hashCode(SeriesGen.local(ds, id, 42))))
    assert(got == Seq(
      "RandomWalk" -> Seq(-900158431, -523243882, -999773765, -1284774245),
      "SIFT" -> Seq(-749264423, -1055404151, -989851704, -2021759453),
      "DNA" -> Seq(2012344610, 283867649, 1789594515, 881954803),
      "EEG" -> Seq(1940797663, 933929642, 502418730, -190263559),
    ))
  }

  test("Algorithm 1's tie-break pick is pinned") {
    val got = (0L until 50L).map(id => SplitMix.pick(id, 1 to 5))
    assert(got == Seq(5, 5, 5, 4, 4, 4, 2, 3, 2, 3, 2, 4, 3, 5, 4, 1, 1, 4, 1, 1, 5, 4, 1, 1, 3,
      3, 4, 4, 1, 5, 5, 5, 1, 2, 4, 1, 1, 2, 2, 4, 4, 4, 3, 5, 1, 1, 3, 1, 3, 3))
  }

  // ClimberQuerySpec's data and parameters. The rows are split into a fixed
  // four input partitions, because the skeleton's sample depends on the
  // input partitioning and the pins must not depend on the core count.
  private lazy val index = ClimberIndex.build(spark,
    spark.range(0, 2000, 1, 4).select(col("id"),
      udf((id: Long) => SeriesGen.local("RandomWalk", id, 1)).apply(col("id")).as("series")),
    ClimberParams(paaW = 16, numPivots = 24, prefixLen = 4, alpha = 0.3, capacity = 200, seed = 7))
  private lazy val queries =
    (0L until 20L).map(i => i * 97 -> SeriesGen.local("RandomWalk", i * 97, 1))

  test("the selected pivots and the serialized skeleton are pinned") {
    val pivots = MurmurHash3.seqHash(index.pivots.vectors.toSeq.map(java.util.Arrays.hashCode))
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(index.skeleton); oos.close()
    val skeleton = (ClimberIndex.serializedBytes(index.skeleton), MurmurHash3.bytesHash(bos.toByteArray))
    assert((pivots, skeleton) == ((2108846099, (3523L, -318863511))))
  }

  test("placement of every record is pinned") {
    val rows = index.data.select("id", "group", "part").collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2))).sorted.toSeq
    assert(rows.size == 2000)
    assert(MurmurHash3.seqHash(rows) == -1339187168)
  }

  test("query plans are pinned under every variant") {
    val variants = Seq(ClimberQuery.Knn, ClimberQuery.Adaptive(4), ClimberQuery.OdSmallest)
    val got = variants.map { v =>
      MurmurHash3.seqHash(queries.map { case (qid, q) =>
        val p = ClimberQuery.planFor(index, q, 50, v, qid)
        (p.groupIds, p.nodeDepth, p.nodeSize, p.partitions.toSeq)
      })
    }
    assert(got == Seq(-91651953, 1129063195, 2062612569))
  }

  test("Adaptive-4X plans are pinned at a K past the best groups' nodes") {
    // At K = 400 most best groups hold fewer than K estimated records, so
    // the plans walk on into the next-ranked groups.
    val got = MurmurHash3.seqHash(queries.map { case (qid, q) =>
      val p = ClimberQuery.planFor(index, q, 400, ClimberQuery.Adaptive(4), qid)
      (p.groupIds, p.nodeDepth, p.nodeSize, p.partitions.toSeq)
    })
    assert(got == -641332229)
  }

  test("kNN ids and distances are pinned") {
    val got = queries.take(3).map { case (qid, q) =>
      MurmurHash3.seqHash(ClimberQuery.knn(index, q, 50, ClimberQuery.Adaptive(4), qid))
    }
    assert(got == Seq(-899255082, 2118102901, 678215390))
  }

  test("HNSW search on a seeded graph is pinned") {
    val pts = Array.tabulate(500)(i => SeriesGen.randomWalkLocal(i.toLong, 32, 12))
    val g = new Hnsw(pts, m = 8, efConstruction = 40, seed = 5)
    g.build(threads = 1)
    val got = (0 until 3).map(j =>
      g.search(SeriesGen.randomWalkLocal(10000L + j, 32, 12), 10, ef = 20).map(_._1))
    assert(got == Seq(
      Seq(319, 294, 175, 287, 197, 225, 129, 59, 229, 6),
      Seq(464, 360, 308, 345, 101, 228, 244, 286, 350, 99),
      Seq(41, 431, 197, 379, 6, 487, 426, 179, 71, 26)))
  }

  // BaselinesSpec's data and settings (c = 200, α = 0.3, seed 3), split into
  // four input partitions like the CLIMBER pins: the routers are built from
  // a sample, which depends on the input partitioning.
  private lazy val baselineData = spark.range(0, 2000, 1, 4).select(col("id"),
    udf((id: Long) => SeriesGen.local("RandomWalk", id, 2)).apply(col("id")).as("series"))

  /** The router's serialized size, a hash of the partitions it routes 200
    * seeded full-precision words to, a hash of the sorted (id, part) rows,
    * the rows per partition and a hash of kNN results for five queries.
    * At this size no tree splits on a symbol's 8th bit, so only the routed
    * words show a change of the word's bits per symbol.
    */
  private def baselinePin(bi: BaselineIndex): (Long, Int, Int, Seq[Long], Int) =
    try {
      val rng = new java.util.Random(17)
      val routes = (1 to 200).map(_ => bi.router.route(Array.fill(8)(rng.nextInt(256))))
      val rows = bi.data.select("id", "part").collect()
        .map(r => (r.getLong(0), r.getInt(1))).sorted.toSeq
      assert(rows.size == 2000)
      val knn = (0L until 5L).map(i =>
        BaselineCommon.knn(bi, SeriesGen.local("RandomWalk", i * 397 + 11, 2), 50))
      (ClimberIndex.serializedBytes(bi.router), MurmurHash3.seqHash(routes), MurmurHash3.seqHash(rows),
        bi.partRows.toSeq, MurmurHash3.seqHash(knn))
    } finally bi.data.unpersist()

  test("DPiSAX routing, layout and kNN are pinned") {
    val got = baselinePin(DpiSax.index(spark, baselineData, capacity = 200, alpha = 0.3, seed = 3))
    assert(got == ((696L, 784984336, 2144998360,
      Seq(213L, 83L, 140L, 78L, 184L, 130L, 159L, 109L, 116L, 137L, 146L, 65L, 192L, 142L, 106L),
      -1002817275)))
  }

  test("TARDIS routing, layout and kNN are pinned") {
    val got = baselinePin(Tardis.index(spark, baselineData, capacity = 200, alpha = 0.3, seed = 3))
    assert(got == ((14731L, -1088938254, -301865793,
      Seq(225L, 171L, 260L, 220L, 268L, 228L, 221L, 32L, 203L, 172L), -2049930688)))
  }
}
