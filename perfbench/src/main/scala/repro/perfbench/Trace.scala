package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

/** One timed interval at a layer boundary. Times are nanoseconds on the
  * tracer's clock; `parent` is -1 for a root span and `op` is the id of the
  * benchmark operation (query or build) the span serves, -1 for none.
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, op: Long) {
  def dur: Long = end - start
}

/** In-memory span recorder. A disabled tracer runs the wrapped code and
  * records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = new ConcurrentLinkedQueue[Span]()
  private val ids = new AtomicInteger(0)
  private val originNs = System.nanoTime()
  private val originMs = System.currentTimeMillis()

  def now(): Long = System.nanoTime() - originNs

  /** Tracer time of a wall-clock instant in epoch milliseconds (Spark's task clock). */
  def fromEpochMs(ms: Long): Long = (ms - originMs) * 1000000L

  def nextId(): Int = ids.getAndIncrement()

  /** Run `f` inside a span; `f` receives the span's id for its children. */
  def span[T](name: String, parent: Int = -1, op: Long = -1)(f: Int => T): T =
    if (!enabled) f(-1)
    else {
      val id = nextId()
      val t0 = now()
      try f(id) finally spans.add(Span(id, name, t0, now(), parent, op))
    }

  def add(s: Span): Unit = if (enabled) spans.add(s)

  def all: Seq[Span] = spans.asScala.toSeq.sortBy(_.id)
}

object Trace {

  /** Self time of every span: its duration minus the part of its interval
    * that the union of its children's intervals covers.
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val iv = kids.getOrElse(s.id, Seq.empty)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      for ((a, b) <- iv) {
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.dur - covered)
    }.toMap
  }

  /** Write spans as JSON lines with their self times. */
  def write(path: Path, spans: Seq[Span]): Unit = {
    val self = selfTimes(spans)
    Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end},""" +
        s""""self_ns":${self(s.id)},"parent":${s.parent},"op":${s.op}}"""
    }
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }
}
