package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ClimberIndex
import repro.series.SeriesGen

class ChecksSpec extends AnyFunSuite {

  private val data = Array(Array(0.0, 0.0), Array(3.0, 4.0), Array(1.0, 0.0), Array(0.0, 2.0))
  private val q = Array(0.0, 0.0)
  private def check(r: Seq[(Long, Double)], k: Int = 3) = Checks.result(r, k, data.length, q, id => data(id.toInt))

  test("a correct result passes") {
    assert(check(Seq((0L, 0.0), (2L, 1.0), (3L, 2.0))).isEmpty)
  }

  test("each result rule is checked") {
    assert(check(Seq((0L, 0.0), (2L, 1.0))).exists(_.startsWith(Checks.Short)))
    assert(check(Seq((0L, 0.0), (2L, 1.0), (2L, 1.0))).exists(_.contains("duplicate")))
    assert(check(Seq((0L, 0.0), (3L, 2.0), (2L, 1.0))).exists(_.contains("order")))
    assert(check(Seq((0L, 0.0), (2L, 1.0), (3L, 2.5))).exists(_.contains("differs")))
    assert(check(Seq((0L, 0.0), (2L, 1.0), (7L, 9.0))).exists(_.contains("outside")))
    // A short result breaks only the size rule.
    assert(check(Seq((0L, 0.0), (2L, 1.0))).size == 1)
  }

  test("a built index passes the placement check") {
    val spark = SparkBench.spark
    val n = 4000
    val df = SeriesGen.generate(spark, "RandomWalk", n, 3).cache()
    val idx = ClimberIndex.build(spark, df, repro.exp.Workloads.benchParams.copy(capacity = 200))
    assert(Checks.placement(idx, n).isEmpty)
    assert(Checks.placement(idx, n + 1).exists(_.contains("not placed")))
    assert(Checks.placement(idx, n - 1).exists(_.contains("outside")))
    val dup = idx.copy(data = idx.data.union(idx.data.limit(3)))
    assert(Checks.placement(dup, n).exists(_.contains("more than once")))
    val badPart = idx.copy(skeleton = idx.skeleton.copy(numPartitions = 1))
    assert(Checks.placement(badPart, n).exists(_.contains("part outside")))
    df.unpersist(); idx.data.unpersist()
  }
}
