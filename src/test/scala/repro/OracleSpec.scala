package repro

import org.apache.spark.sql.functions._
import repro.core.{ClimberIndex, ClimberParams}
import repro.series.SeriesGen

/** Exercises the provided DuckDB oracle on a built CLIMBER index (its
  * placed rows, aggregated and joined back to the raw series) plus CLIMBER's
  * signature-frequency aggregation (the Step-2 input of Figure 6), so a
  * broken groupBy/count or join path cannot silently corrupt centroid
  * selection or placement statistics.
  */
class OracleSpec extends SparkSpec {

  private lazy val df = SeriesGen.generate(spark, "RandomWalk", 1500, seed = 5).cache()
  private lazy val index = ClimberIndex.build(spark, df,
    ClimberParams(paaW = 16, numPivots = 24, prefixLen = 4, alpha = 0.3, capacity = 200))
  // `group` is a reserved word in DuckDB.
  private lazy val placed = index.data.select(col("id"), col("group").as("grp"), col("part"))

  test("per-partition aggregation of an index agrees between Spark and DuckDB") {
    val got = placed.groupBy("part")
      .agg(count(lit(1)).as("cnt"), round(sum(col("id").cast("double")), 2).as("idsum"))
    assert(got.count() > 1)
    Oracle.assertEquivalent(
      got,
      """SELECT part, COUNT(*) AS cnt, ROUND(SUM(CAST(id AS DOUBLE)), 2) AS idsum
        |FROM placed GROUP BY part""".stripMargin,
      "placed" -> placed)
  }

  test("index/series join agrees between Spark and DuckDB") {
    val raw = df.select(col("id"), (col("series")(0) > 0).cast("int").as("up"))
    val got = placed.join(raw, "id")
      .groupBy("grp").agg(count(lit(1)).as("cnt"), sum("up").as("ups"))
    assert(got.count() > 1)
    Oracle.assertEquivalent(
      got,
      """SELECT grp, COUNT(*) AS cnt, SUM(CAST(r.up AS INTEGER)) AS ups
        |FROM placed p JOIN raw r ON CAST(p.id AS BIGINT) = CAST(r.id AS BIGINT)
        |GROUP BY grp""".stripMargin,
      "placed" -> placed, "raw" -> raw)
  }

  test("signature frequency aggregation agrees with DuckDB (Fig. 6 Step 2)") {
    import spark.implicits._
    val rng = new java.util.Random(3)
    val sigs = (1 to 300).map { i =>
      val s = Array.fill(4)(rng.nextInt(6)).sorted
      (i.toLong, s.mkString("<", ",", ">"))
    }.toDF("id", "sig")
    val got = sigs.groupBy("sig").agg(count(lit(1)).as("freq"))
    Oracle.assertEquivalent(
      got,
      "SELECT sig, COUNT(*) AS freq FROM sigs GROUP BY sig",
      "sigs" -> sigs)
  }

  test("recall-style set intersection agrees with DuckDB") {
    import spark.implicits._
    val approx = Seq(1L, 2L, 3L, 4L, 5L).toDF("id")
    val exact = Seq(2L, 4L, 6L, 8L, 10L).toDF("id")
    val got = approx.join(exact, "id").agg(count(lit(1)).as("hits"))
    Oracle.assertEquivalent(
      got,
      """SELECT COUNT(*) AS hits FROM approx a JOIN exact e
        |ON CAST(a.id AS BIGINT) = CAST(e.id AS BIGINT)""".stripMargin,
      "approx" -> approx, "exact" -> exact)
  }
}
