package repro.memory

import repro.SparkSpec
import repro.core.Distances
import repro.series.SeriesGen

class HnswSpec extends SparkSpec {

  private val dim = 32
  private lazy val points: Array[Array[Double]] =
    Array.tabulate(1500)(i => SeriesGen.randomWalkLocal(i.toLong, dim, 12))

  private def exact(q: Array[Double], k: Int): Seq[Int] =
    points.indices
      .map(i => (i, Distances.euclidean(points(i), q)))
      .sortBy { case (i, d) => (d, i) }
      .take(k)
      .map(_._1)

  private lazy val graph: Hnsw = {
    val g = new Hnsw(points, m = 12, efConstruction = 120, seed = 3)
    g.build(threads = 1)
    g
  }

  test("every point can find itself as its own nearest neighbor") {
    for (i <- Seq(0, 77, 700, 1499)) {
      val res = graph.search(points(i), 1, ef = 64)
      assert(res.head._1 == i, s"point $i found ${res.head._1}")
    }
  }

  test("search returns k sorted results") {
    val res = graph.search(points(5), 20, ef = 100)
    assert(res.size == 20)
    assert(res.map(_._2) == res.map(_._2).sorted)
    assert(res.map(_._1).distinct.size == 20)
  }

  test("recall@10 is high (graph methods' defining property)") {
    val rng = new java.util.Random(7)
    val recalls = (1 to 20).map { _ =>
      val q = SeriesGen.randomWalkLocal(10000L + rng.nextInt(1000), dim, 99)
      val got = graph.search(q, 10, ef = 128).map(_._1).toSet
      val exp = exact(q, 10).toSet
      got.intersect(exp).size / 10.0
    }
    val mean = recalls.sum / recalls.size
    assert(mean >= 0.8, s"mean recall@10 $mean")
  }

  test("larger ef does not decrease recall") {
    val q = SeriesGen.randomWalkLocal(55555L, dim, 99)
    val exp = exact(q, 10).toSet
    val rSmall = graph.search(q, 10, ef = 16).map(_._1).toSet.intersect(exp).size
    val rLarge = graph.search(q, 10, ef = 256).map(_._1).toSet.intersect(exp).size
    assert(rLarge >= rSmall)
  }

  test("layer-0 graph is non-trivially connected") {
    assert(graph.degreeSum0 >= points.length.toLong) // ≥ 1 edge per node on average
  }

  test("sequential build is deterministic in the seed") {
    val g1 = new Hnsw(points.take(300), m = 8, efConstruction = 60, seed = 5)
    g1.build(threads = 1)
    val g2 = new Hnsw(points.take(300), m = 8, efConstruction = 60, seed = 5)
    g2.build(threads = 1)
    val q = SeriesGen.randomWalkLocal(999L, dim, 99)
    assert(g1.search(q, 10, 64) == g2.search(q, 10, 64))
  }

  test("parallel build still yields a searchable graph with good recall") {
    val g = new Hnsw(points, m = 12, efConstruction = 120, seed = 3)
    g.build(threads = 8)
    val rng = new java.util.Random(8)
    val recalls = (1 to 10).map { _ =>
      val q = SeriesGen.randomWalkLocal(20000L + rng.nextInt(1000), dim, 99)
      val got = g.search(q, 10, ef = 128).map(_._1).toSet
      got.intersect(exact(q, 10).toSet).size / 10.0
    }
    assert(recalls.sum / recalls.size >= 0.7, s"parallel recall ${recalls.sum / recalls.size}")
  }

  test("single-point graph works") {
    val g = new Hnsw(points.take(1), m = 16, efConstruction = 100, seed = 1)
    g.build(threads = Runtime.getRuntime.availableProcessors())
    assert(g.search(points(0), 1, 10).map(_._1) == Seq(0))
  }

  test("distances returned are true Euclidean distances") {
    val q = SeriesGen.randomWalkLocal(31L, dim, 99)
    graph.search(q, 5, 64).foreach { case (i, d) =>
      assert(math.abs(d - Distances.euclidean(points(i), q)) < 1e-9)
    }
  }

  test("ParlayAnnSim honours the single-node budget (the Table I 'X')") {
    val df = SeriesGen.generate(spark, "RandomWalk", 100, seed = 1)
    assert(ParlayAnnSim.build(df, nSeries = 100, budgetSeries = 50).isLeft)
    val built = ParlayAnnSim.build(df, 100, 200)
    assert(built.isRight)
    val sim = built.toOption.get
    val q = SeriesGen.local("RandomWalk", 3L, 1)
    val res = sim.knn(q, 5)
    assert(res.head._1 == 3L && res.head._2 == 0.0)
  }
}
