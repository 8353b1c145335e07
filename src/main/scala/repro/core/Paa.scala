package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.udf

/** Piecewise Aggregate Approximation (PAA), the Step-1 segmentation of
  * CLIMBER-FX (§IV-B) and the base representation for iSAX (§III-B).
  *
  * A series of length `n` is divided into `w` equal segments and each
  * segment is replaced by its mean, reducing the dimensionality from
  * `n` to `w` (Figure 3 of the paper).
  */
object Paa {

  /** PAA of `xs` with `w` segments. Requires `w` to divide `xs.length`
    * (all paper datasets' lengths are multiples of the configured `w`).
    */
  def of(xs: Array[Double], w: Int): Array[Double] = {
    val n = xs.length
    // A plain throw, not `require`: its by-name message is a closure built per call.
    if (w <= 0 || n % w != 0) throw new IllegalArgumentException(
      s"requirement failed: segment count $w must divide series length $n")
    val seg = n / w
    val out = new Array[Double](w)
    var s = 0
    while (s < w) {
      var acc = 0.0
      var i = s * seg
      val end = i + seg
      while (i < end) { acc += xs(i); i += 1 }
      out(s) = acc / seg
      s += 1
    }
    out
  }

  /** Column transform: array<double> series → array<double> PAA of width `w`.
    * The UDF takes `Array[Double]`, which Spark decodes straight from the
    * row's array data; a `Seq[Double]` input would box every element.
    */
  def paaUdf(w: Int): Column => Column = {
    val f = udf((xs: Array[Double]) => of(xs, w))
    (c: Column) => f(c)
  }
}
