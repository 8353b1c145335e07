package repro.perfbench

import org.apache.spark.sql.SparkSession

/** One local-mode session for the benchmark's own tests. */
object SparkBench {
  lazy val spark: SparkSession = SparkSession.builder
    .master("local[4]")
    .appName("perfbench-test")
    .config("spark.sql.shuffle.partitions", "8")
    .config("spark.ui.enabled", "false")
    .getOrCreate()
}
