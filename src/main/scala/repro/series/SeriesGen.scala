package repro.series

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.SplitMix

/** Synthetic data series generators standing in for the paper's datasets.
  *
  * The paper evaluates on RandomWalk (256 pts), Texmex SIFT (128 pts),
  * UCSC DNA (192 pts), and Seizure EEG (256 pts). We cannot ship those
  * corpora, so each generator below produces a deterministic synthetic
  * surrogate with the same per-series dimensionality and the same broad
  * structure (see DESIGN.md §2 for the substitution rationale).
  *
  * Every series is z-normalised (mean 0, stddev 1), the standard
  * pre-processing for SAX-family indexing, so the Gaussian iSAX
  * breakpoints are meaningful.
  *
  * Generation is deterministic in (id, seed): each row seeds its own
  * `java.util.Random` from a mix of the global seed and the row id, so
  * DataFrame and driver-local generation agree exactly.
  */
object SeriesGen {

  /** Series length for each named dataset, as in the paper. */
  val Lengths: Map[String, Int] =
    Map("RandomWalk" -> 256, "SIFT" -> 128, "DNA" -> 192, "EEG" -> 256)

  /** All dataset names in the paper's Figure 7 order. */
  val Datasets: Seq[String] = Seq("RandomWalk", "SIFT", "DNA", "EEG")

  /** SplitMix64 state `seed + id·γ`, finalised, so per-row streams are decorrelated. */
  private def mix(seed: Long, id: Long): Long = SplitMix.finalise(seed + id * SplitMix.Gamma)

  /** Z-normalise in place; constant series map to all-zeros. */
  def znorm(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    var s = 0.0; var i = 0
    while (i < n) { s += xs(i); i += 1 }
    val mean = s / n
    var v = 0.0; i = 0
    while (i < n) { val d = xs(i) - mean; v += d * d; i += 1 }
    val sd = math.sqrt(v / n)
    val out = new Array[Double](n)
    i = 0
    while (i < n) { out(i) = if (sd > 1e-12) (xs(i) - mean) / sd else 0.0; i += 1 }
    out
  }

  /** RandomWalk benchmark: cumulative sum of N(0,1) steps. */
  def randomWalkLocal(id: Long, n: Int, seed: Long): Array[Double] = {
    val rng = new java.util.Random(mix(seed, id))
    val xs = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += rng.nextGaussian(); xs(i) = acc; i += 1 }
    znorm(xs)
  }

  /** SIFT surrogate: one of 64 latent cluster centers plus Gaussian noise.
    * Centers are themselves deterministic in the seed, giving the clustered
    * high-dimensional regime of image feature vectors.
    */
  def siftLocal(id: Long, n: Int, seed: Long): Array[Double] = {
    val rng = new java.util.Random(mix(seed, id))
    val cluster = (mix(seed * 31 + 7, id) & 0x3F).toInt // 64 clusters
    val crng = new java.util.Random(mix(seed * 131 + 17, cluster.toLong))
    val xs = new Array[Double](n)
    var i = 0
    while (i < n) { xs(i) = 3.0 * crng.nextGaussian() + 0.8 * rng.nextGaussian(); i += 1 }
    znorm(xs)
  }

  /** DNA surrogate: the Shieh & Keogh conversion — a walk whose steps are
    * drawn from the 4-letter alphabet mapped to {-2,-1,+1,+2}.
    */
  def dnaLocal(id: Long, n: Int, seed: Long): Array[Double] = {
    val rng = new java.util.Random(mix(seed, id))
    val steps = Array(-2.0, -1.0, 1.0, 2.0)
    val xs = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += steps(rng.nextInt(4)); xs(i) = acc; i += 1 }
    znorm(xs)
  }

  /** EEG surrogate: mixture of low-frequency sinusoids, broadband noise,
    * and a rare epileptiform spike burst.
    */
  def eegLocal(id: Long, n: Int, seed: Long): Array[Double] = {
    val rng = new java.util.Random(mix(seed, id))
    val nWaves = 3
    val freqs = Array.fill(nWaves)(1.0 + rng.nextDouble() * 12.0)
    val phases = Array.fill(nWaves)(rng.nextDouble() * 2 * math.Pi)
    val amps = Array.fill(nWaves)(0.5 + rng.nextDouble())
    val spike = rng.nextDouble() < 0.1
    val spikeAt = rng.nextInt(n)
    val xs = new Array[Double](n)
    var i = 0
    while (i < n) {
      var v = 0.0
      var w = 0
      while (w < nWaves) { v += amps(w) * math.sin(2 * math.Pi * freqs(w) * i / n + phases(w)); w += 1 }
      v += 0.3 * rng.nextGaussian()
      if (spike && math.abs(i - spikeAt) < 5) v += 4.0 * (5 - math.abs(i - spikeAt))
      xs(i) = v
      i += 1
    }
    znorm(xs)
  }

  /** Driver-local generation of one series of the named dataset. */
  def local(dataset: String, id: Long, seed: Long): Array[Double] = {
    require(Lengths.contains(dataset), s"unknown dataset $dataset")
    val n = Lengths(dataset)
    dataset match {
      case "RandomWalk" => randomWalkLocal(id, n, seed)
      case "SIFT"       => siftLocal(id, n, seed)
      case "DNA"        => dnaLocal(id, n, seed)
      case "EEG"        => eegLocal(id, n, seed)
      case other        => throw new IllegalArgumentException(s"unknown dataset $other")
    }
  }

  /** DataFrame of `rows` series: columns (id: long, series: array<double>). */
  def generate(spark: SparkSession, dataset: String, rows: Long, seed: Long = 42): DataFrame = {
    require(Lengths.contains(dataset), s"unknown dataset $dataset")
    val gen = udf((id: Long) => local(dataset, id, seed))
    spark.range(rows).select(col("id"), gen(col("id")).as("series"))
  }
}
