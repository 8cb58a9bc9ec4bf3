package perfbench

import java.nio.file.Files

import scala.collection.mutable

import org.scalatest.funsuite.AnyFunSuite

/** Runs the benchmark end to end on the smoke workload (iris, both
  * configurations): untraced, then traced.
  */
class SmokeSpec extends AnyFunSuite {

  private val out = Files.createTempDirectory(java.nio.file.Paths.get("target"), "smoke")

  private def runOnce(trace: Boolean): (Int, Seq[String]) = {
    val lines = mutable.ArrayBuffer.empty[String]
    val args = Main.parse(Seq("--workload", "smoke", "--seed", "7", "--seconds", "0.1",
      "--trace", if (trace) "1" else "0", "--out", out.resolve("results").toString)).toOption.get
    val code = Main.run(args, Workloads.byName("smoke").get, lines += _)
    (code, lines.toSeq)
  }

  private def metricNames(json: String): Set[String] =
    """"([a-z0-9_.]+)": \{"value"""".r.findAllMatchIn(json).map(_.group(1)).toSet

  test("untraced run prints every end-to-end metric and passes its checks") {
    val (code, lines) = runOnce(trace = false)
    assert(code == 0, lines.mkString("\n"))
    val last = lines.last
    assert(last.startsWith("{\"correct\": true, \"attempted\": 2, \"failed\": 0"))
    assert(metricNames(last) == Set("setup_s", "acc_mean", "dcosts_mean", "alloc_gb"))
  }

  test("traced run reproduces the untraced results and reports per-layer metrics") {
    val (code, lines) = runOnce(trace = true)
    assert(code == 0, lines.mkString("\n"))
    val names = metricNames(lines.last)
    for (n <- Seq("explain_s", "explain_p50_s", "explain_tail_s", "spark.overlap_s", "search.polls", "search.extend_s", "blocking.block_s",
        "induction.induce_s", "sampling.greedy_map_s", "trace.overhead_s"))
      assert(names.contains(n), n)
    assert(Files.exists(out.resolve("results").resolve("spans-smoke-seed7.tsv")))
  }

  test("argument errors are reported, not run") {
    assert(Main.parse(Seq("--workload", "smoke")).isLeft)
    assert(Main.parse(Seq("--workload", "smoke", "--seed", "x", "--seconds", "1", "--trace", "0")).isLeft)
    assert(Main.parse(Seq("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "2")).isLeft)
  }
}
