package repro.perfbench

import java.util.concurrent.{Callable, Executors}
import org.scalatest.funsuite.AnyFunSuite

class AttributionSpec extends AnyFunSuite {

  test("concurrent clients' tasks stay attributed to their own tags") {
    val sc = SparkBench.spark.sparkContext
    val a = new Attribution
    sc.addSparkListener(a)
    val clients = Executors.newFixedThreadPool(4)
    try {
      // Client c runs 3 jobs of c + 1 partitions each, all at once.
      (0 until 4).map { c =>
        clients.submit(new Callable[Unit] {
          def call(): Unit = for (j <- 0 until 3)
            Attribution.tagged(sc, s"client$c-$j") {
              sc.parallelize(1 to 1000, c + 1).map(x => x * x).count()
            }
        })
      }.foreach(_.get())
      a.drain(sc)
      for (c <- 0 until 4; j <- 0 until 3) {
        val tag = s"client$c-$j"
        assert(a.jobs(tag) == 1, tag)
        assert(a.tasks(tag).map(_.partition).sorted == (0 to c), tag)
        assert(a.tasks(tag).forall(t => t.finishMs >= t.launchMs && t.waitMs >= 0), tag)
      }
      assert(sc.getLocalProperty(Attribution.Key) == null, "tags do not leak to the caller")
    } finally {
      clients.shutdown()
      sc.removeSparkListener(a)
    }
  }

  test("tasks are linked to the RDDs their stage reads") {
    val sc = SparkBench.spark.sparkContext
    val a = new Attribution
    sc.addSparkListener(a)
    try {
      val cached = sc.parallelize(1 to 100, 4).cache()
      cached.count()
      Attribution.tagged(sc, "read")(cached.map(_ + 1).count())
      a.drain(sc)
      assert(a.tasks("read").size == 4)
      assert(a.tasks("read").forall(_.readsRdd.contains(cached.id)))
      cached.unpersist()
    } finally sc.removeSparkListener(a)
  }
}
