package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared SparkSession bootstrap for spark-submit entrypoints. */
object JobSession {
  def get(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table I — `spark-submit --class repro.jobs.TableIJob` (optional args:
  * comma-separated sizes in paper-GB).
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("climber-table1")
    val sizes = if (args.nonEmpty) args(0).split(",").map(_.trim.toInt).toSeq
                else TableOne.SizesGb
    val rows = TableOne.run(spark, sizes)
    println(TableOne.render(rows))
    spark.stop()
  }
}

/** Figures 7+8 as a table — `--class repro.jobs.FigSevenJob`. */
object FigSevenJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("climber-fig7")
    println(FigSeven.render(FigSeven.run(spark)))
    spark.stop()
  }
}

/** Figure 9 (K sweep; 9(b) is the paper's embedded table) —
  * `--class repro.jobs.FigNineJob`.
  */
object FigNineJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("climber-fig9")
    println(FigNine.render(FigNine.run(spark)))
    spark.stop()
  }
}

/** Figures 11(b) + 12 ablations — `--class repro.jobs.AblationJob`. */
object AblationJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("climber-ablation")
    println(Ablation.renderOd(Ablation.runOdSmallest(spark)))
    println()
    println(Ablation.renderPrefix(Ablation.runPrefix(spark)))
    spark.stop()
  }
}
