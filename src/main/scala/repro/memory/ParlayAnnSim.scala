package repro.memory

import org.apache.spark.sql.DataFrame

/** ParlayANN-HNSW simulator [42] for Table I: a *single-node, multi-core,
  * main-memory* graph-based ANN system.
  *
  * Reproduced behaviours: (1) construction is by far the most expensive of
  * the three systems (parallel graph building); (2) queries are sub-second
  * with ~0.9 recall; (3) the entire graph + vectors must fit in one node's
  * RAM, so the budget is half the simulated cluster's (the paper runs it on
  * only one of the two nodes) and Table I shows "X" earlier than Odyssey.
  */
final class ParlayAnnSim(val ids: Array[Long], hnsw: Hnsw, efSearch: Int) {

  def knn(query: Array[Double], k: Int): Seq[(Long, Double)] =
    hnsw.search(query, k, math.max(efSearch, k + k / 4)).map { case (i, d) => (ids(i), d) }
}

object ParlayAnnSim {

  /** Build, honouring the single-node memory budget (in series). */
  def build(data: DataFrame, nSeries: Long, budgetSeries: Long, m: Int = 16,
            efConstruction: Int = 100, efSearch: Int = 600,
            threads: Int = Runtime.getRuntime.availableProcessors(),
            seed: Long = 1): Either[String, ParlayAnnSim] =
    InMemory.load(data, nSeries, budgetSeries, "single-node budget").map { case (ids, pts) =>
      val g = new Hnsw(pts, m, efConstruction, seed)
      g.build(threads)
      new ParlayAnnSim(ids, g, efSearch)
    }
}
