package repro.isax

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ClimberIndex, Paa}
import repro.scan.Dss

/** Shared machinery for the two iSAX baselines (DPiSAX, TARDIS): both build
  * a tiny global structure from a sample of iSAX words, broadcast it, route
  * every record to exactly one physical partition, and answer a query by
  * ED-scanning the single partition its word routes to (§VII-A: "the
  * baseline techniques are restricted to a single partition").
  */
trait WordRouter extends Serializable {
  def route(word: Array[Int]): Int
  def numPartitions: Int
}

/** A built baseline index: the router plus the re-distributed dataset with
  * columns (id, series, part), cached by `Dss.cacheByPart` one Spark
  * partition per routed partition (Spark partition id = part), and the rows
  * of each partition.
  */
final case class BaselineIndex(
    name: String,
    router: WordRouter,
    data: DataFrame,
    buildSec: Double,
    indexBytes: Long,
    partRows: Array[Long],
)

object BaselineCommon {

  /** Word length (PAA segments) of both baselines' iSAX words (§VII-A;
    * §III-B: iSAX trees must keep the word length small).
    */
  val PaaW = 8

  /** Bits per iSAX symbol: words at 2^8 cardinality. */
  val Bits = 8

  /** iSAX word of a raw series: `PaaW` symbols at `2^Bits` cardinality. */
  def wordOf(series: Array[Double]): Array[Int] = Isax.word(Paa.of(series, PaaW), Bits)

  /** Build a baseline index: sample → words → `mkRouter` → re-distribute. */
  def index(spark: SparkSession, df: DataFrame, name: String, alpha: Double, seed: Long,
            mkRouter: Seq[(Array[Int], Long)] => WordRouter): BaselineIndex = {
    val t0 = System.nanoTime()
    val wordUdf = udf { (xs: Array[Double]) => wordOf(xs) }
    val sampleWords = df.sample(withReplacement = false, alpha, seed)
      .select(wordUdf(col("series")).as("word"))
      .groupBy("word").count()
      .collect()
      .map(r => (r.getSeq[Int](0).toArray, math.max(1L, math.round(r.getLong(1) / alpha))))
      .toSeq
    val router = mkRouter(sampleWords)
    val bc = spark.sparkContext.broadcast(router)
    val routeUdf = udf { (xs: Array[Double]) => bc.value.route(wordOf(xs)) }
    val (data, partRows) = Dss.cacheByPart(
      df.select(col("id"), col("series"), routeUdf(col("series")).as("part")), router.numPartitions)
    val buildSec = (System.nanoTime() - t0) / 1e9
    BaselineIndex(name, router, data, buildSec, ClimberIndex.serializedBytes(router), partRows)
  }

  /** Approximate kNN: route the query to its single partition and ED-rank
    * that partition's records.
    */
  def knn(index: BaselineIndex, query: Array[Double], k: Int): Seq[(Long, Double)] =
    Dss.topK(index.data, Seq(index.router.route(wordOf(query))), Array(query), k).head
}
