package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable

/** One timed call. `parent` is the id of the enclosing span (-1 at the
  * root); spans of one explain call share `request`.
  */
final case class Span(id: Int, parent: Int, request: Int, name: String, start: Long, end: Long)

/** Records spans around calls into the program's layers. Spans stay in
  * memory until `write`; `counts` collects per-layer work counters at the
  * same boundaries.
  */
final class Tracer(clock: () => Long = () => System.nanoTime()) {

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[Int]
  private var request = 0
  val counts: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty

  def all: Seq[Span] = spans.toSeq

  def count(name: String, n: Long = 1L): Unit = counts(name) = counts.getOrElse(name, 0L) + n

  def max(name: String, v: Long): Unit = counts(name) = math.max(counts.getOrElse(name, 0L), v)

  /** Start a new request (one explain call); spans opened until the next
    * call belong to it.
    */
  def newRequest(): Unit = request += 1

  def span[A](name: String)(body: => A): A = {
    val id = spans.length
    val parent = stack.headOption.getOrElse(-1)
    spans += null // reserve the slot so ids follow start order
    stack.push(id)
    val start = clock()
    try body
    finally {
      val end = clock()
      stack.pop()
      spans(id) = Span(id, parent, request, name, start, end)
    }
  }

  /** Total self time (ns) per span name. */
  def selfTimes: Map[String, Long] = Tracer.selfTimes(all)

  /** Write all spans as TSV (id, parent, request, name, start, end). */
  def write(path: Path): Unit = {
    val sb = new StringBuilder("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
    for (s <- spans) sb.append(s"${s.id}\t${s.parent}\t${s.request}\t${s.name}\t${s.start}\t${s.end}\n")
    Files.createDirectories(path.getParent)
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {

  /** Self time per span name: each span's duration minus the union of its
    * children's intervals, summed by name.
    */
  def selfTimes(spans: Seq[Span]): Map[String, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans
      .map { s =>
        val kids = children.getOrElse(s.id, Nil).map(c => (c.start, c.end))
        s.name -> Stats.selfTime(s.start, s.end, kids)
      }
      .groupMapReduce(_._1)(_._2)(_ + _)
  }
}
