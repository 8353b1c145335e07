package repro.core

/** SplitMix64 (Steele, Lea & Flood): the one hash behind every
  * deterministic "random" choice in the code — Algorithm 1's and
  * Algorithm 3's random tie-breaks, HNSW levels and per-series generator
  * seeds.
  */
object SplitMix {

  /** The golden-ratio increment γ of the SplitMix64 state. */
  val Gamma: Long = 0x9E3779B97F4A7C15L

  /** The SplitMix64 output finaliser. */
  def finalise(z0: Long): Long = {
    var z = (z0 ^ (z0 >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** The next SplitMix64 output from state `z`. */
  def mix(z: Long): Long = finalise(z + Gamma)

  /** Deterministic stand-in for a random pick from `candidates`, keyed on `key`. */
  def pick[T](key: Long, candidates: Seq[T]): T =
    candidates(java.lang.Math.floorMod(mix(key), candidates.size.toLong).toInt)
}
