package repro.exp

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.scan.Dss
import repro.series.SeriesGen

class WorkloadsSpec extends SparkSpec {

  test("recall: identical sets give 1.0") {
    assert(Workloads.recall(Seq(1L, 2L, 3L), Seq(1L, 2L, 3L)) == 1.0)
  }

  test("recall: disjoint sets give 0.0") {
    assert(Workloads.recall(Seq(1L, 2L), Seq(3L, 4L)) == 0.0)
  }

  test("recall: partial overlap (Def. 4)") {
    assert(Workloads.recall(Seq(1L, 2L, 3L, 4L), Seq(3L, 4L, 5L, 6L)) == 0.5)
  }

  test("recall: order does not matter") {
    assert(Workloads.recall(Seq(3L, 1L, 2L), Seq(2L, 3L, 1L)) == 1.0)
  }

  test("recall: empty ground truth gives 1.0 (vacuous)") {
    assert(Workloads.recall(Seq(1L), Seq.empty) == 1.0)
  }

  test("meanRecall averages over the ground-truth queries") {
    val truth = Map(1L -> Seq(10L, 11L), 2L -> Seq(20L, 21L))
    val res = Map(1L -> Seq(10L, 11L), 2L -> Seq(20L, 99L))
    assert(Workloads.meanRecall(res, truth) == 0.75)
  }

  test("meanRecall treats a missing query result as recall 0") {
    val truth = Map(1L -> Seq(10L), 2L -> Seq(20L))
    val res = Map(1L -> Seq(10L))
    assert(Workloads.meanRecall(res, truth) == 0.5)
  }

  test("queries: deterministic, distinct, within range, from the dataset") {
    val qs = Workloads.queries("RandomWalk", 1000, 5)
    val again = Workloads.queries("RandomWalk", 1000, 5)
    assert(qs.map(_._1) == again.map(_._1))
    assert(qs.map(_._1).distinct.size == 5)
    assert(qs.forall { case (id, _) => id >= 0 && id < 1000 })
    qs.foreach { case (id, s) =>
      assert(s.toSeq == SeriesGen.local("RandomWalk", id, Workloads.DataSeed).toSeq)
    }
  }

  test("queries: different seeds give different query sets") {
    val a = Workloads.queries("RandomWalk", 10000, 5, seed = 1).map(_._1)
    val b = Workloads.queries("RandomWalk", 10000, 5, seed = 2).map(_._1)
    assert(a != b)
  }

  test("timed measures non-negative wall clock and returns the value") {
    val (v, t) = Workloads.timed { Thread.sleep(5); 42 }
    assert(v == 42)
    assert(t >= 0.004)
  }

  test("table renders header, separator, and aligned rows") {
    val s = Workloads.table(Seq("A", "Col"), Seq(Seq("1", "x"), Seq("22", "yy")))
    val lines = s.split("\n")
    assert(lines.length == 4)
    assert(lines(0).startsWith("A"))
    assert(lines(1).matches("[- ]+"))
    assert(lines.map(_.length).distinct.size == 1) // aligned widths
  }

  test("scale mapping constant matches DESIGN.md") {
    assert(Workloads.SeriesPerGb == 250)
  }

  test("bench parameters follow the paper's §VII-A defaults") {
    assert(Workloads.benchParams.numPivots == 200)
    assert(Workloads.benchParams.prefixLen == 10)
  }

  test("dataset materialisation counts and caches the rows") {
    val df = Workloads.dataset(spark, "DNA", 100)
    // Loaded by `dataset` itself, before any query of the DataFrame.
    assert(df.queryExecution.withCachedData.asInstanceOf[InMemoryRelation].cacheBuilder
      .isCachedColumnBuffersLoaded)
    assert(df.count() == 100)
    assert(df.storageLevel.useMemory)
    df.unpersist()
  }

  // The dataset harness at 1 GB-equivalent: 250 series.

  test("withDataset hands the body the series, their queries and the Dss ground truth") {
    Workloads.withDataset(spark, "RandomWalk", 1, k = 7) { w =>
      assert(w.n == 250 && w.df.count() == 250)
      val expected = Workloads.queries("RandomWalk", 250, Workloads.NumQueries)
      assert(w.queries.map { case (id, q) => (id, q.toSeq) } ==
        expected.map { case (id, q) => (id, q.toSeq) })
      assert(w.truth == Dss.knnBatch(spark, w.df, expected, 7))
      assert(w.truth.values.forall(_.size == 7))
    }
  }

  test("withDataset unpersists the series after the body, also when it throws") {
    var seen: DataFrame = null
    Workloads.withDataset(spark, "RandomWalk", 1, k = 7) { w =>
      seen = w.df
      assert(w.df.storageLevel.useMemory)
    }
    assert(seen.storageLevel == StorageLevel.NONE)

    seen = null
    val e = intercept[IllegalStateException](
      Workloads.withDataset(spark, "RandomWalk", 1, k = 7) { w =>
        seen = w.df
        assert(w.df.storageLevel.useMemory)
        throw new IllegalStateException("body failed")
      })
    assert(e.getMessage == "body failed")
    assert(seen.storageLevel == StorageLevel.NONE)
  }

  test("the Dss run scores recall 1.0 and scans all n rows through measure") {
    Workloads.withDataset(spark, "RandomWalk", 1, k = 7) { w =>
      val m = Workloads.measure(w.queries, w.truth)(Workloads.dssRun(w.df, w.n, 7))
      assert(m.recall == 1.0)
      assert(m.rowsScanned == 250.0)
      assert(m.qrtSec > 0)
    }
  }
}
