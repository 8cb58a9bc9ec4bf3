package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("the tail is the highest percentile with at least ten samples beyond it") {
    val hundred = Stats.tail((1 to 100).map(_.toDouble))
    assert(hundred == Stats.Tail(90, 90.0, 100, 10))
    // 48 samples: rank 38 leaves exactly 10 beyond; p79 is the highest
    // percentile whose nearest rank is at most 38.
    val t = Stats.tail((1 to 48).map(_.toDouble))
    assert(t.percentile == 79 && t.value == 38.0 && t.beyond == 10 && t.samples == 48)
    val eleven = Stats.tail((1 to 11).map(_.toDouble))
    assert(eleven.beyond == 10 && eleven.value == 1.0)
  }

  test("too few samples for a tail fall back to the maximum and say so") {
    val t = Stats.tail(Seq(2.0, 7.0, 1.0))
    assert(t == Stats.Tail(100, 7.0, 3, 0))
  }

  test("self time subtracts the union of the children") {
    assert(Stats.selfTime(0, 100, Nil) == 100)
    assert(Stats.selfTime(0, 100, Seq((10L, 20L), (30L, 50L))) == 70)
    // Overlapping children count once.
    assert(Stats.selfTime(0, 100, Seq((10L, 40L), (30L, 60L), (35L, 45L))) == 50)
    // Children reaching outside the parent are clipped to it.
    assert(Stats.selfTime(10, 20, Seq((0L, 15L), (18L, 30L))) == 3)
    assert(Stats.selfTime(0, 10, Seq((0L, 10L), (2L, 3L))) == 0)
  }
}
