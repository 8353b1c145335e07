package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Per-operation Spark attribution. A caller tags the jobs it submits by
  * setting the thread-local property `Attribution.Key` (see `tagged`); the
  * listener files every task under the tag of the job that ran it, so
  * concurrent clients never see each other's tasks.
  */
final class Attribution extends SparkListener {
  import Attribution._

  private val stageTag = new ConcurrentHashMap[Int, String]()
  private val stageSubmitted = new ConcurrentHashMap[Int, Long]()
  private val stageRdds = new ConcurrentHashMap[Int, Set[Int]]()
  private val jobsByTag = new ConcurrentHashMap[String, Int]()
  private val tasksByTag = new ConcurrentHashMap[String, mutable.ArrayBuffer[Task]]()

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(Key))).foreach { tag =>
      jobsByTag.merge(tag, 1, _ + _)
      e.stageInfos.foreach { s =>
        stageTag.put(s.stageId, tag)
        stageRdds.put(s.stageId, s.rddInfos.map(_.id).toSet)
      }
    }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    e.stageInfo.submissionTime.foreach(t => stageSubmitted.put(e.stageInfo.stageId, t))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val tag = stageTag.get(e.stageId)
    if (tag != null && e.taskInfo != null) {
      val m = Option(e.taskMetrics)
      val i = e.taskInfo
      val t = Task(e.stageId, i.partitionId, i.launchTime, i.finishTime,
        waitMs = math.max(0L, i.launchTime - stageSubmitted.getOrDefault(e.stageId, i.launchTime)),
        runMs = m.map(_.executorRunTime).getOrElse(0L),
        shuffleWriteBytes = m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
        readsRdd = stageRdds.getOrDefault(e.stageId, Set.empty))
      tasksByTag.computeIfAbsent(tag, _ => mutable.ArrayBuffer[Task]()).synchronized {
        tasksByTag.get(tag) += t
      }
    }
  }

  def jobs(tag: String): Int = jobsByTag.getOrDefault(tag, 0)

  def tasks(tag: String): Seq[Task] =
    Option(tasksByTag.get(tag)).map(b => b.synchronized(b.toList)).getOrElse(Nil)

  /** Block until every event posted before this call has reached the
    * listener: run a tagged no-op job and wait for its task to arrive.
    */
  def drain(sc: SparkContext, timeoutMs: Long = 30000): Unit = {
    val tag = s"drain-${System.nanoTime()}"
    tagged(sc, tag)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.currentTimeMillis() + timeoutMs
    while (tasks(tag).isEmpty && System.currentTimeMillis() < deadline) Thread.sleep(5)
    require(tasks(tag).nonEmpty, "Spark listener events did not drain")
  }
}

object Attribution {

  /** Spark local property carrying the operation tag. */
  val Key: String = "perfbench.op"

  /** One finished task: wall times in epoch ms, wait from stage submission
    * to launch, executor run time, and the ids of the RDDs its stage reads.
    */
  final case class Task(stageId: Int, partition: Int, launchMs: Long, finishMs: Long,
                        waitMs: Long, runMs: Long, shuffleWriteBytes: Long, readsRdd: Set[Int])

  /** Run `f` with this thread's Spark jobs tagged `tag`. */
  def tagged[T](sc: SparkContext, tag: String)(f: => T): T = {
    val prev = sc.getLocalProperty(Key)
    sc.setLocalProperty(Key, tag)
    try f finally sc.setLocalProperty(Key, prev)
  }
}
