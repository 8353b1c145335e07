package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  test("self time subtracts the union of overlapping children") {
    val spans = Seq(
      Span(0, "query", 0, 100, -1, 1),
      Span(1, "plan", 0, 10, 0, 1),
      Span(2, "scan", 10, 90, 0, 1),
      Span(3, "spark.task", 20, 60, 2, 1),
      Span(4, "spark.task", 40, 80, 2, 1), // overlaps task 3
      Span(5, "spark.task", 85, 95, 2, 1), // runs past its parent's end
    )
    val self = Trace.selfTimes(spans)
    assert(self(0) == 10) // 100 - (10 + 80)
    assert(self(1) == 10)
    assert(self(2) == 80 - 60 - 5) // covered: [20, 80) and [85, 90)
    assert(self(3) == 40 && self(4) == 40 && self(5) == 10)
  }

  test("a disabled tracer runs the code and records nothing") {
    val t = new Tracer(enabled = false)
    assert(t.span("x")(_ => 42) == 42)
    assert(t.all.isEmpty)
  }

  test("spans nest through the ids passed to their bodies") {
    val t = new Tracer(enabled = true)
    t.span("outer", op = 7)(o => t.span("inner", o, 7)(_ => ()))
    val Seq(outer, inner) = t.all
    assert(outer.name == "outer" && inner.parent == outer.id && inner.op == 7)
    assert(outer.start <= inner.start && inner.end <= outer.end)
  }
}
