package perfbench

/** Summary statistics used by the benchmark's reports. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** A tail percentile together with the evidence behind it. */
  final case class Tail(percentile: Int, value: Double, samples: Int, beyond: Int)

  /** 1-based nearest rank of percentile `p` among `n` samples. */
  private def rank(n: Int, p: Int): Int = math.max(1, math.ceil(p * n / 100.0).toInt)

  /** The highest whole percentile that still has at least `minBeyond`
    * samples strictly above its nearest-rank position. With too few
    * samples for any such percentile, falls back to the maximum and says
    * so through `beyond` (which is then below `minBeyond`).
    */
  def tail(xs: Seq[Double], minBeyond: Int = 10): Tail = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.length
    val p = (99 to 1 by -1).find(p => n - rank(n, p) >= minBeyond)
    p match {
      case Some(q) => Tail(q, s(rank(n, q) - 1), n, n - rank(n, q))
      case None    => Tail(100, s(n - 1), n, 0)
    }
  }

  /** Length of the part of `[start, end)` covered by the union of
    * `intervals` (each clipped to the outer interval; overlaps count once).
    */
  def covered(start: Long, end: Long, intervals: Seq[(Long, Long)]): Long = {
    val clipped = intervals
      .map { case (s, e) => (math.max(s, start), math.min(e, end)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s
        curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Self time of a span: its duration minus the part its children cover. */
  def selfTime(start: Long, end: Long, children: Seq[(Long, Long)]): Long =
    (end - start) - covered(start, end, children)
}
