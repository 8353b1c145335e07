package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Centroids.SigFreq
import repro.core.Distances.{Decay, ExpDecay}
import repro.scan.Dss

/** Configuration of CLIMBER (defaults follow §VII-A where the paper gives
  * them: r = 200 pivots, prefix length m = 10; see DESIGN.md §6 for the
  * bench-scale choices of the rest).
  */
final case class ClimberParams(
    paaW: Int = 32,
    numPivots: Int = 200,
    prefixLen: Int = 10,
    alpha: Double = 0.1, // sample fraction for skeleton construction
    capacity: Long = 1000, // partition capacity c, in records
    seed: Long = 7,
) {
  /** Centroid separation ε of Algorithm 2: half the prefix length. */
  def eps: Int = math.max(1, prefixLen / 2)
  /** Weight decay of the Weighted Distance (Def. 9). */
  val decay: Decay = ExpDecay(0.5)
  /** Algorithm 2 lines 15-16: no cap on the number of centroids. */
  val maxCentroids: Int = Int.MaxValue
}

/** Wall-clock breakdown of index construction (Figure 10(a) phases) and
  * the layout's partition sizes. `pivotsSec`, `aggregateSec` and
  * `skeletonBuildSec` split `skeletonSec`; what they leave out of it (the
  * driver-side P⁴⇉ fold, unpersisting the sample) is small. The last three
  * fields come from the index's `partRows`.
  */
final case class BuildStats(
    skeletonSec: Double, // Steps 1-3: sampling + signatures + skeleton
    redistributeSec: Double, // Step 4: full-dataset conversion + re-distribution
    totalSec: Double,
    numGroups: Int,
    numPartitions: Int,
    skeletonBytes: Long,
    pivotsSec: Double, // Steps 1-2: sample materialization + pivot pick
    aggregateSec: Double, // Step 2: the P⁴→ group-by and its collect
    skeletonBuildSec: Double, // Step 3: Algorithm 2 + tries + FFD packing
    overflowParts: Int, // partitions holding more than the capacity c
    maxPartRows: Long,
    g0Rows: Long, // rows in the fall-back group G₀'s partitions
)

/** A fully built CLIMBER index: the broadcastable skeleton, the pivot set,
  * and the re-distributed dataset with columns
  * (id: long, series: array<double>, group: int, part: int),
  * cached by `Dss.cacheByPart` with one Spark partition per CLIMBER
  * partition: Spark partition `p` holds exactly the rows with `part = p`,
  * `partRows(p)` of them.
  */
final case class ClimberIndex(
    params: ClimberParams,
    pivots: PivotSet,
    skeleton: IndexSkeleton,
    data: DataFrame,
    stats: BuildStats,
    partRows: Array[Long],
)

object ClimberIndex {

  /** Java-serialised size of an index structure (the paper's "global index
    * size" metric of Figure 8(b)).
    */
  def serializedBytes(o: AnyRef): Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(o); oos.close()
    bos.size().toLong
  }

  /** Build the index over `df` (columns: id long, series array<double>)
    * following the four steps of Figure 6.
    */
  def build(spark: SparkSession, df: DataFrame, params: ClimberParams): ClimberIndex = {
    val t0 = System.nanoTime()
    val paa = Paa.paaUdf(params.paaW)

    // Steps 1-2: sample, PAA, pivots, signature frequency aggregation. Only
    // the rank-sensitive signatures are aggregated; the rank-insensitive
    // frequencies fold from them on the driver (P⁴⇉ is P⁴→ sorted).
    val sample = df.sample(withReplacement = false, params.alpha, params.seed)
      .withColumn("paa", paa(col("series")))
      .cache()
    val pivots = Pivots.select(sample, "paa", params.numPivots, params.prefixLen, params.seed)
    val tPivots = System.nanoTime()
    val bcPivots = spark.sparkContext.broadcast(pivots)
    val rsUdf = udf((paaV: Array[Double]) => bcPivots.value.rankSensitive(paaV))
    val rsAgg = sample.groupBy(rsUdf(col("paa")).as("rs")).count().collect().toSeq
      .map(r => SigFreq(r.getSeq[Int](0).toArray, r.getLong(1)))
    val tAggregate = System.nanoTime()
    sample.unpersist()
    val riAgg = PivotSet.rankInsensitiveAgg(rsAgg)

    // Step 3: centroids, groups, tries, FFD packing → index skeleton.
    val tSkeleton = System.nanoTime()
    val skeleton = IndexSkeleton.build(riAgg, rsAgg, params.alpha, params.capacity,
      params.eps, params.decay, params.maxCentroids)
    val t1 = System.nanoTime()

    // Step 4: broadcast the skeleton, place and re-distribute the full
    // dataset, one Spark partition per CLIMBER partition (the analogue of
    // one HDFS file per partition). The layout is loaded here, so the timing
    // is honest. A series whose PAA holds a NaN has no nearest pivots, so it
    // fails the build (DESIGN.md §7).
    val bcSkel = spark.sparkContext.broadcast(skeleton)
    val placeUdf = udf { (id: Long, series: Array[Double]) =>
      val paa = Paa.of(series, params.paaW)
      var i = 0
      while (i < paa.length) {
        if (paa(i).isNaN)
          throw new IllegalArgumentException(s"series $id has a NaN in its PAA: NaN input cannot be indexed")
        i += 1
      }
      bcSkel.value.place(bcPivots.value.rankSensitive(paa))
    }
    val (data, partRows) = Dss.cacheByPart(df
      .withColumn("_p", placeUdf(col("id"), col("series")))
      .select(col("id"), col("series"), col("_p._1").as("group"), col("_p._2").as("part")),
      skeleton.numPartitions)
    val t2 = System.nanoTime()

    val stats = BuildStats(
      skeletonSec = (t1 - t0) / 1e9,
      redistributeSec = (t2 - t1) / 1e9,
      totalSec = (t2 - t0) / 1e9,
      numGroups = skeleton.groups.size,
      numPartitions = skeleton.numPartitions,
      skeletonBytes = serializedBytes(skeleton),
      pivotsSec = (tPivots - t0) / 1e9,
      aggregateSec = (tAggregate - tPivots) / 1e9,
      skeletonBuildSec = (t1 - tSkeleton) / 1e9,
      overflowParts = partRows.count(_ > params.capacity),
      maxPartRows = partRows.max,
      g0Rows = skeleton.groups(0).root.partitions.map(partRows(_)).sum,
    )
    ClimberIndex(params, pivots, skeleton, data, stats, partRows)
  }
}
