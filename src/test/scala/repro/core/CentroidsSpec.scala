package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.Centroids.SigFreq

class CentroidsSpec extends SparkSpec {

  private def sf(freq: Long, xs: Int*): SigFreq = SigFreq(xs.toArray.sorted, freq)

  test("the highest-frequency signature becomes the first centroid (line 3)") {
    val l = Seq(sf(5, 1, 2, 3), sf(50, 4, 5, 6), sf(7, 7, 8, 9))
    val cs = Centroids.compute(l, alpha = 1.0, capacity = 1, epsilon = 1)
    assert(cs.head.toSeq == Seq(4, 5, 6))
  }

  test("candidates closer than ε to an existing centroid are skipped (lines 5-9)") {
    val l = Seq(sf(50, 1, 2, 3), sf(40, 1, 2, 4), sf(30, 7, 8, 9))
    // OD(<1,2,3>, <1,2,4>) = 1 < ε=2 → skipped; <7,8,9> is far (OD 3) → kept.
    val cs = Centroids.compute(l, alpha = 1.0, capacity = 1, epsilon = 2)
    assert(cs.map(_.toSeq) == Seq(Seq(1, 2, 3), Seq(7, 8, 9)))
  }

  test("ε = 0 disables the separation filter") {
    val l = Seq(sf(50, 1, 2, 3), sf(40, 1, 2, 4))
    val cs = Centroids.compute(l, alpha = 1.0, capacity = 1, epsilon = 0)
    assert(cs.size == 2)
  }

  test("selection stops when the estimated group size falls below α·c (lines 10-13)") {
    // Ten signatures with freq 10 each (total 100). With capacity 60 and
    // α = 1: after the 1st centroid, candidate 2's estimate is
    // 10 + 80/2 = 50 < 60 → stop with a single centroid.
    val l = (0 until 10).map(i => sf(10, 3 * i, 3 * i + 1, 3 * i + 2))
    val cs = Centroids.compute(l, alpha = 1.0, capacity = 60, epsilon = 1)
    assert(cs.size == 1)
  }

  test("a small capacity yields many centroids") {
    val l = (0 until 10).map(i => sf(10, 3 * i, 3 * i + 1, 3 * i + 2))
    val cs = Centroids.compute(l, alpha = 1.0, capacity = 5, epsilon = 1)
    assert(cs.size == 10)
  }

  test("the α scaling is applied to the capacity threshold (line 12)") {
    // Same data as the stop test but α = 0.1 → threshold 6 → no early stop.
    val l = (0 until 10).map(i => sf(10, 3 * i, 3 * i + 1, 3 * i + 2))
    val cs = Centroids.compute(l, alpha = 0.1, capacity = 60, epsilon = 1)
    assert(cs.size == 10)
  }

  test("maxCentroids caps the selection (lines 15-16)") {
    val l = (0 until 10).map(i => sf(10, 3 * i, 3 * i + 1, 3 * i + 2))
    val cs = Centroids.compute(l, alpha = 1.0, capacity = 5, epsilon = 1, maxCentroids = 3)
    assert(cs.size == 3)
  }

  test("empty input yields no centroids") {
    assert(Centroids.compute(Seq.empty, 1.0, 10, 1).isEmpty)
  }

  test("single signature yields exactly one centroid") {
    val cs = Centroids.compute(Seq(sf(3, 1, 2, 3)), 1.0, 10, 1)
    assert(cs.map(_.toSeq) == Seq(Seq(1, 2, 3)))
  }

  test("selected centroids are pairwise at least ε apart") {
    val rng = new java.util.Random(5)
    val l = (0 until 200).map { _ =>
      val s = scala.collection.mutable.LinkedHashSet[Int]()
      while (s.size < 4) s += rng.nextInt(30)
      SigFreq(s.toArray.sorted, 1 + rng.nextInt(20).toLong)
    }
    for (eps <- Seq(1, 2, 3)) {
      val cs = Centroids.compute(l, alpha = 1.0, capacity = 1, epsilon = eps)
      for (i <- cs.indices; j <- cs.indices if i < j)
        assert(Distances.overlap(cs(i), cs(j)) >= eps)
    }
  }

  test("frequency ties are broken deterministically") {
    val l = Seq(sf(10, 4, 5, 6), sf(10, 1, 2, 3))
    val a = Centroids.compute(l, 1.0, 1, 1)
    val b = Centroids.compute(l.reverse, 1.0, 1, 1)
    assert(a.map(_.toSeq) == b.map(_.toSeq))
  }

  /** The earlier formulation, kept as the reference: `sortBy` rebuilds each
    * signature's string on every comparison and the picked frequencies are
    * re-summed for every candidate.
    */
  private def reference(l: Seq[SigFreq], alpha: Double, capacity: Long, epsilon: Int,
                        maxCentroids: Int): IndexedSeq[Array[Int]] = {
    if (l.isEmpty) return IndexedSeq.empty
    val sorted = l.sortBy(sf => (-sf.freq, sf.sig.toSeq.mkString(","))).toIndexedSeq
    val totalFreq = sorted.map(_.freq).sum
    val picked = scala.collection.mutable.ArrayBuffer[SigFreq](sorted.head)
    var stop = false
    var i = 1
    while (!stop && i < sorted.length) {
      val cand = sorted(i)
      val tooClose = picked.exists(c => Distances.overlap(c.sig, cand.sig) < epsilon)
      if (!tooClose) {
        val pickedFreq = picked.map(_.freq).sum + cand.freq
        val rest = totalFreq - pickedFreq
        val sizeEst = cand.freq + rest.toDouble / (picked.size + 1)
        if (sizeEst < alpha * capacity) stop = true
        else {
          picked += cand
          if (picked.size == maxCentroids) stop = true
        }
      }
      i += 1
    }
    picked.map(_.sig).toIndexedSeq
  }

  test("compute equals the sortBy formulation, frequency ties and ids ≥ 10 included") {
    // Pivot ids up to 24 and few distinct frequencies: many ties are broken
    // by the string form, where <10,…> sorts before <2,…>.
    val inputs = for {
      m <- Gen.choose(1, 4)
      l <- Gen.listOf(for {
        sig <- Gen.pick(m, 0 until 25).map(_.sorted.toArray)
        freq <- Gen.choose(1L, 4L)
      } yield SigFreq(sig, freq))
      alpha <- Gen.oneOf(0.1, 0.5, 1.0)
      capacity <- Gen.choose(1L, 40L)
      eps <- Gen.choose(0, m)
      maxCentroids <- Gen.oneOf(Int.MaxValue, 1, 3)
    } yield (l, alpha, capacity, eps, maxCentroids)
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500),
      Prop.forAll(inputs) { case (l, alpha, capacity, eps, maxCentroids) =>
        Centroids.compute(l, alpha, capacity, eps, maxCentroids).map(_.toSeq) ==
          reference(l, alpha, capacity, eps, maxCentroids).map(_.toSeq)
      })
    assert(res.passed, res.status.toString)
  }

  test("invalid α is rejected") {
    intercept[IllegalArgumentException](Centroids.compute(Seq(sf(1, 1, 2)), 0.0, 10, 1))
    intercept[IllegalArgumentException](Centroids.compute(Seq(sf(1, 1, 2)), 1.5, 10, 1))
  }
}
