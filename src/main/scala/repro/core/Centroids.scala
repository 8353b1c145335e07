package repro.core

/** Algorithm 2 — Computation of Groups' Centroids (§V, Step 2).
  *
  * Input is the frequency-aggregated list of rank-insensitive signatures of a
  * sample. The algorithm greedily selects centroids in descending frequency
  * order, skipping candidates that are closer than `ε` (Overlap Distance) to
  * an already-selected centroid, and stops once the estimated size of the
  * next group would fall below the (sample-scaled) capacity `α·c` or once
  * `maxCentroids` is reached. A special fall-back centroid (G₀) is always
  * appended conceptually; here it is represented implicitly as group id 0.
  */
object Centroids {

  /** One aggregated sample signature. */
  final case class SigFreq(sig: Array[Int], freq: Long)

  /** Result: 1-based centroid list (index i ↔ group id i+1). */
  def compute(l: Seq[SigFreq], alpha: Double, capacity: Long, epsilon: Int,
              maxCentroids: Int = Int.MaxValue): IndexedSeq[Array[Int]] = {
    require(alpha > 0 && alpha <= 1.0, s"sample fraction α=$alpha out of (0,1]")
    if (l.isEmpty) return IndexedSeq.empty
    // Line 2: sort descending by frequency, ties by the signature's string
    // form (for determinism). Each key is built once, not per comparison;
    // the object sort is stable, as `sortBy` is.
    val byKey: Ordering[(Long, String, SigFreq)] = (a, b) => {
      val c = java.lang.Long.compare(a._1, b._1)
      if (c != 0) c else a._2.compareTo(b._2)
    }
    val sorted = l.iterator.map(sf => (-sf.freq, sf.sig.mkString(","), sf)).toArray
      .sorted(byKey).map(_._3)
    val totalFreq = sorted.iterator.map(_.freq).sum
    val picked = scala.collection.mutable.ArrayBuffer[SigFreq](sorted.head) // Line 3
    var pickedFreq = sorted.head.freq
    var stop = false
    var i = 1
    while (!stop && i < sorted.length) {
      val cand = sorted(i)
      // Lines 5-9: too close to an existing centroid → skip candidate.
      val tooClose = picked.exists(c => Distances.overlap(c.sig, cand.sig) < epsilon)
      if (!tooClose) {
        // Lines 10-13: estimated group size assuming the non-centroid mass is
        // spread uniformly over the (k+1) groups we would then have.
        val rest = totalFreq - (pickedFreq + cand.freq)
        val sizeEst = cand.freq + rest.toDouble / (picked.size + 1)
        if (sizeEst < alpha * capacity) stop = true // Lines 12-13
        else {
          picked += cand // Line 14
          pickedFreq += cand.freq
          if (picked.size == maxCentroids) stop = true // Lines 15-16
        }
      }
      i += 1
    }
    picked.map(_.sig).toIndexedSeq
  }
}
