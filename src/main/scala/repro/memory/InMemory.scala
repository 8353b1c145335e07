package repro.memory

import org.apache.spark.sql.DataFrame

/** The load both in-memory comparators share: every (id, series) of a
  * dataset collected to the driver, within a memory budget.
  */
private[memory] object InMemory {

  /** The ids and series of `data`, in matching order, or Left(reason) when
    * its `nSeries` exceed `budgetSeries`; `budget` names the budget.
    */
  def load(data: DataFrame, nSeries: Long, budgetSeries: Long,
           budget: String): Either[String, (Array[Long], Array[Array[Double]])] =
    if (nSeries > budgetSeries) Left(s"dataset of $nSeries series exceeds the $budget of $budgetSeries")
    else {
      import data.sparkSession.implicits._
      val rows = data.select("id", "series").as[(Long, Array[Double])].collect()
      Right((rows.map(_._1), rows.map(_._2)))
    }
}
