package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {

  /** A clock that advances by one tick per reading. */
  private def ticking(): () => Long = {
    var t = 0L
    () => { t += 1; t }
  }

  test("nested spans record parents and self time") {
    val tr = new Tracer(ticking())
    tr.newRequest()
    tr.span("outer") {
      tr.span("inner")(())
      tr.span("inner")(())
    }
    val spans = tr.all
    assert(spans.map(_.name) == Seq("outer", "inner", "inner"))
    assert(spans.map(_.parent) == Seq(-1, 0, 0))
    assert(spans.forall(_.request == 1))
    // outer spans ticks 1..6; each inner one tick.
    assert(tr.selfTimes == Map("outer" -> 3L, "inner" -> 2L))
  }

  test("self time counts overlapping children once") {
    val spans = Seq(
      Span(0, -1, 1, "explain", 0, 100),
      Span(1, 0, 1, "spark.overlap", 10, 60),
      Span(2, 0, 1, "search.run", 40, 90),
      Span(3, 2, 1, "search.extend", 50, 70),
    )
    assert(Tracer.selfTimes(spans) == Map(
      "explain" -> 20L, "spark.overlap" -> 50L, "search.run" -> 30L, "search.extend" -> 20L))
  }

  test("a span that throws is still recorded") {
    val tr = new Tracer(ticking())
    intercept[IllegalStateException](tr.span("boom")(throw new IllegalStateException("x")))
    assert(tr.all.map(_.name) == Seq("boom"))
  }

  test("counters add up and maxima keep the largest value") {
    val tr = new Tracer()
    tr.count("calls"); tr.count("calls", 4)
    tr.max("largest", 3); tr.max("largest", 9); tr.max("largest", 5)
    assert(tr.counts("calls") == 5 && tr.counts("largest") == 9)
  }
}
