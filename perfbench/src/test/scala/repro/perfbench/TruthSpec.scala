package repro.perfbench

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.scan.Dss
import repro.series.SeriesGen

class TruthSpec extends AnyFunSuite {

  private val n = 3000
  private val seed = 5L
  private val k = 25

  test("exact ground truth agrees with Dss.knnBatch on a small dataset") {
    for (ds <- Seq("RandomWalk", "EEG")) {
      val local = Truth.local(ds, n, seed, threads = 3)
      val queries = Seq(0L, 17L, 1234L, 2999L).map(id => id -> local(id.toInt))
      val truth = Truth.exact(local, k, queries, threads = 3)
      val df = SeriesGen.generate(SparkBench.spark, ds, n, seed)
      val dss = Dss.knnBatch(SparkBench.spark, df, queries, k)
      for ((q, _) <- queries) {
        assert(truth(q).map(_._1) == dss(q), s"$ds query $q")
        assert(truth(q).head == ((q, 0.0)), "a query drawn from the data is its own nearest neighbour")
      }
    }
  }

  test("ties are broken by id and the result is in (distance, id) order") {
    val data = Array(Array(1.0), Array(-1.0), Array(0.0), Array(1.0), Array(2.0))
    val r = Truth.exact(data, 4, Seq(9L -> Array(0.0)), threads = 2)(9L)
    assert(r == Seq((2L, 0.0), (0L, 1.0), (1L, 1.0), (3L, 1.0)))
  }

  test("the disk cache returns what it stored, keyed by the query ids") {
    val dir = Files.createTempDirectory("truth")
    val local = Truth.local("RandomWalk", 500, seed, threads = 2)
    def truth(ids: Seq[Long]) = Truth.exact(local, 10, ids.map(id => id -> local(id.toInt)), threads = 2)
    val first = Truth.cached(dir, "RandomWalk", 500, seed, 10, Seq(3L, 4L))(truth(Seq(3L, 4L)))
    val again = Truth.cached(dir, "RandomWalk", 500, seed, 10, Seq(3L, 4L))(fail("not cached"))
    assert(again == first)
    val other = Truth.cached(dir, "RandomWalk", 500, seed, 10, Seq(4L, 3L))(truth(Seq(4L, 3L)))
    assert(other == first)
    assert(Files.list(dir).count() == 2)
  }
}
