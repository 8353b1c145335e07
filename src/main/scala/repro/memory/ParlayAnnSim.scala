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
final class ParlayAnnSim private (val ids: Array[Long], hnsw: Hnsw) {

  def knn(query: Array[Double], k: Int): Seq[(Long, Double)] =
    hnsw.search(query, k, math.max(ParlayAnnSim.EfSearch, k + k / 4))
      .map { case (i, d) => (ids(i), d) }
}

object ParlayAnnSim {

  /** The one HNSW configuration Table I runs: neighbours per node, the
    * construction and search beams, and the level seed.
    */
  private val M = 16
  private val EfConstruction = 100
  private val EfSearch = 600
  private val Seed = 1L

  /** Build on every core of the machine, honouring the single-node memory
    * budget (in series).
    */
  def build(data: DataFrame, nSeries: Long, budgetSeries: Long): Either[String, ParlayAnnSim] =
    InMemory.load(data, nSeries, budgetSeries, "single-node budget").map { case (ids, pts) =>
      val g = new Hnsw(pts, M, EfConstruction, Seed)
      g.build(Runtime.getRuntime.availableProcessors())
      new ParlayAnnSim(ids, g)
    }
}
