package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.core.model.RunningExample
import repro.gen.{Dataset, ProblemGen}

/** The benchmark's entry point: one run of one workload.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      [--out <dir>] [--git-sha <sha>] [--source-hash <hash>]
  * }}}
  *
  * Set-up (Spark session, a warm-up job, dataset collection and instance
  * generation) is repeated `Setups` times and reported as its median.
  * The timed phase runs the workload's passes of explain calls. With
  * `--trace 1`, one traced pass follows and the per-layer metrics are
  * printed instead of the end-to-end ones. The last line of standard
  * output is the result as one JSON object; the exit code is 1 when any
  * explain call failed a check.
  */
object Main {

  /** Spark runs in local mode with a fixed thread count (fewer on smaller
    * machines) and shuffle width, so results do not depend on the machine's
    * size beyond that.
    */
  val SparkThreads: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val ShufflePartitions = 8
  val Setups = 3

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      out: Path,
      gitSha: String,
      sourceHash: String,
  )

  final case class Setup(total: Double, collect: Double, generate: Double)

  /** One pass over the workload's tasks. */
  final case class Pass(outcomes: Seq[Outcome], gcSeconds: Double, gcCount: Long) {
    def explain: Double = outcomes.map(_.seconds).sum
    def alloc: Double = outcomes.map(_.allocBytes.toDouble).sum
  }

  /** Sum of `f` over the tasks of one pass, each task taken at its median
    * over the passes: a single slow pass of one task does not move it.
    */
  def medianPass(passes: Seq[Pass])(f: Outcome => Double): Double =
    passes.head.outcomes.indices.map(i => Stats.median(passes.map(p => f(p.outcomes(i))))).sum

  /** A metric value with its unit. */
  final case class Metric(value: Double, unit: String)

  def parse(argv: Seq[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def req(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      _ <- if (argv.length % 2 == 0) Right(()) else Left("arguments must come in --key value pairs")
      w <- req("workload")
      seed <- req("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- req("seconds").flatMap(s => s.toDoubleOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- req("trace").flatMap {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"bad --trace $t")
      }
    } yield Args(
      w, seed, secs, trace,
      out = Paths.get(kv.getOrElse("out", ".bench_build/results")),
      gitSha = kv.getOrElse("git-sha", "unknown"),
      sourceHash = kv.getOrElse("source-hash", "unknown"),
    )
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq) match {
      case Right(a) => a
      case Left(msg) => Console.err.println(s"perfbench: $msg"); sys.exit(2)
    }
    val workload = Workloads.byName(args.workload).getOrElse {
      Console.err.println(s"perfbench: unknown workload ${args.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val code = run(args, workload, println(_))
    sys.exit(code)
  }

  /** Run the benchmark and print its report through `out`; returns the
    * process exit code.
    */
  def run(args: Args, workload: Workload, out: String => Unit): Int = {
    val local = args.out.toAbsolutePath.getParent
    val env = environment(args)
    out("# env " + env.map { case (k, v) => s"$k=$v" }.mkString(" "))

    // --- set-up, repeated; the last session is kept for the timed phase ---
    var spark: SparkSession = null
    var tasks: Seq[Task] = Nil
    val setups = (1 to Setups).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session(local)
      Explain.overlap(spark, RunningExample.instance) // warm-up job
      val t1 = System.nanoTime()
      val collected: Map[String, Dataset] =
        workload.datasets.map(n => n -> ProblemGen.collectDataset(spark, n)).toMap
      val t2 = System.nanoTime()
      tasks = workload.tasks(collected, args.seed)
      val t3 = System.nanoTime()
      Setup((t3 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9)
    }

    try {
      // --- warm-up passes, then the timed passes ---
      val warmUp = (1 to workload.warmUpPasses).map(_ => runPass(spark, tasks))
      val passes = mutable.ArrayBuffer.fill(workload.timedPasses(args.seconds))(runPass(spark, tasks))
      val all = warmUp ++ passes

      val failures = mutable.ArrayBuffer.empty[String]
      for (p <- all; o <- p.outcomes; e <- o.error) failures += s"${o.task.label}: $e"
      // Determinism: every pass must reproduce the first pass's fingerprints.
      for (p <- all.drop(1); (o, ref) <- p.outcomes.zip(all.head.outcomes))
        if (o.fingerprint.isDefined && ref.fingerprint.isDefined && o.fingerprint != ref.fingerprint)
          failures += s"${o.task.label}: result changed between passes: ${ref.fingerprint.get} then ${o.fingerprint.get}"
      failures ++= compareWithEarlierRuns(args, workload, passes.head.outcomes)
      var attempted = all.map(_.outcomes.size).sum

      val metrics: Seq[(String, Metric)] =
        if (!args.trace) endToEnd(setups, passes.toSeq, out)
        else {
          attempted += 2 * tasks.size
          perLayer(spark, args, workload, setups, passes, failures, out)
        }

      val failed = failures.size
      for ((st, i) <- setups.zipWithIndex)
        out(f"# setup ${i + 1}: total=${st.total}%.3fs collect=${st.collect}%.3fs generate=${st.generate}%.3fs")
      for ((p, i) <- all.zipWithIndex)
        out(f"# pass ${i + 1}${if (i < warmUp.size) " (warm-up, not timed)" else ""}: explain=${p.explain}%.3fs alloc=${p.alloc / 1e9}%.3fGB gc=${p.gcSeconds}%.3fs")
      for (o <- passes.head.outcomes)
        out(f"# task ${o.task.label}%-40s explain=${o.seconds}%.3fs overlap=${o.overlapSeconds}%.3fs search=${o.searchSeconds}%.3fs")
      failures.foreach(f => out(s"# FAILED $f"))
      out(f"# attempted=$attempted failed=$failed failed_frac=${failed.toDouble / attempted}%.4f passes=${all.size} tasks=${tasks.size}")
      for ((k, m) <- metrics) out(s"# $k = ${m.value} ${m.unit}")

      val result = Json.obj(
        "correct" -> (failed == 0),
        "attempted" -> attempted,
        "failed" -> failed,
        "metrics" -> Json.obj(metrics.map { case (k, m) => k -> Json.obj("value" -> m.value, "unit" -> m.unit) }: _*),
      )
      val record = Json.obj(
        "workload" -> workload.name,
        "seed" -> args.seed,
        "trace" -> args.trace,
        "env" -> Json.obj(env: _*),
        "failures" -> failures.toSeq,
        "result" -> result,
      )
      val file = args.out.resolve(s"${workload.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
      Files.createDirectories(args.out)
      Files.write(file, (record + "\n").getBytes(StandardCharsets.UTF_8))
      out(result.text)
      if (failed == 0) 0 else 1
    } finally spark.stop()
  }

  /** Fingerprints must also repeat across runs: the first run at a seed
    * (for given sources) records them, and every later run compares.
    */
  private def compareWithEarlierRuns(args: Args, workload: Workload, outcomes: Seq[Outcome]): Seq[String] = {
    if (outcomes.exists(_.failed)) return Nil
    val lines = outcomes.map(o => s"${o.task.label}\t${o.fingerprint.get}")
    val file = args.out.resolve(s"fingerprints-${workload.name}-seed${args.seed}-${args.sourceHash}.tsv")
    if (Files.exists(file)) {
      val earlier = Files.readAllLines(file, StandardCharsets.UTF_8).asScala.toSeq
      lines.zip(earlier).collect { case (now, before) if now != before =>
        s"result differs from an earlier run at this seed: $before then $now"
      }
    } else {
      Files.createDirectories(args.out)
      val tmp = Files.createTempFile(args.out, "fingerprints", ".tmp")
      Files.write(tmp, lines.asJava, StandardCharsets.UTF_8)
      Files.move(tmp, file, java.nio.file.StandardCopyOption.ATOMIC_MOVE)
      Nil
    }
  }

  private def session(local: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$SparkThreads]")
      .appName("affidavit-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", local.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def gcTotals(): (Double, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime.max(0L)).sum / 1e3, beans.map(_.getCollectionCount.max(0L)).sum)
  }

  def runPass(spark: SparkSession, tasks: Seq[Task]): Pass = {
    val (gc0, n0) = gcTotals()
    val outcomes = tasks.map(t => Explain.run(spark, t))
    val (gc1, n1) = gcTotals()
    Pass(outcomes, gc1 - gc0, n1 - n0)
  }

  def environment(args: Args): Seq[(String, Any)] = Seq(
    "nproc" -> Runtime.getRuntime.availableProcessors(),
    "jdk" -> s"${System.getProperty("java.vm.vendor")} ${System.getProperty("java.runtime.version")}",
    "max_heap_mb" -> Runtime.getRuntime.maxMemory() / (1024 * 1024),
    "spark_master" -> s"local[$SparkThreads]",
    "shuffle_partitions" -> ShufflePartitions,
    "setups" -> Setups,
    "seconds" -> args.seconds,
    "seed" -> args.seed,
    "git_sha" -> args.gitSha,
    "source_hash" -> args.sourceHash,
  )

  /** Median and tail of the per-call explain times of the timed passes. */
  private def callTimes(passes: Seq[Pass], out: String => Unit): Seq[(String, Metric)] = {
    val samples = passes.flatMap(_.outcomes.filterNot(_.failed).map(_.seconds))
    val tail = Stats.tail(if (samples.isEmpty) Seq(0.0) else samples)
    out(s"# explain_p50_s and explain_tail_s are over ${tail.samples} explain calls; " +
      s"the tail is p${tail.percentile} with ${tail.beyond} samples beyond it")
    Seq(
      "explain_p50_s" -> Metric(if (samples.isEmpty) 0.0 else Stats.median(samples), "s"),
      "explain_tail_s" -> Metric(tail.value, "s"),
    )
  }

  /** Time of one pass: per task the median over the passes, summed. */
  private def passTime(passes: Seq[Pass]): (String, Metric) =
    "explain_s" -> Metric(medianPass(passes)(_.seconds), "s")

  /** The gated metrics. Explain times are printed too, but reported as
    * per-layer metrics: from run to run they spread more than any bound
    * allows (see README).
    */
  private def endToEnd(setups: Seq[Setup], passes: Seq[Pass], out: String => Unit): Seq[(String, Metric)] = {
    val judged = passes.head.outcomes.flatMap(_.judged)
    for ((k, m) <- passTime(passes) +: callTimes(passes, out)) out(s"# $k = ${m.value} ${m.unit}")
    Seq(
      "setup_s" -> Metric(Stats.median(setups.map(_.total)), "s"),
      "acc_mean" -> Metric(Stats.mean(judged.map(_.acc)), "fraction"),
      "dcosts_mean" -> Metric(Stats.mean(judged.map(_.dCosts)), "ratio"),
      "alloc_gb" -> Metric(medianPass(passes)(_.allocBytes.toDouble) / 1e9, "GB"),
    )
  }

  private def perLayer(
      spark: SparkSession,
      args: Args,
      workload: Workload,
      setups: Seq[Setup],
      passes: mutable.ArrayBuffer[Pass],
      failures: mutable.ArrayBuffer[String],
      out: String => Unit,
  ): Seq[(String, Metric)] = {
    val untraced = passTime(passes.toSeq) +: callTimes(passes.toSeq, out)
    val first = passes.head.outcomes
    val counted = first.filterNot(_.failed)
    val hs = counted.filter(_.task.config == repro.eval.Protocol.Hs)

    // --- one traced pass, checked against the untraced results ---
    val tr = new Tracer()
    for (ref <- first) {
      val task = ref.task
      try {
        val r = TracedExplain.run(spark, task, tr)
        val got = (r.cost, r.polls, r.explanation.funcs.map(_.describe), r.idAttrs)
        ref.fingerprint.foreach { fp =>
          if (got != fp.searchPart) failures += s"${task.label}: traced run differs: $got vs ${fp.searchPart}"
        }
        r.endStateCost.foreach { c =>
          if (c != r.cost) failures += s"${task.label}: end-state cost $c != explanation cost ${r.cost}"
        }
      } catch {
        case scala.util.control.NonFatal(e) => failures += s"${task.label}: traced run threw $e"
      }
    }
    // An untraced pass right after the traced one is the base of the
    // tracing overhead: both run equally warm.
    val after = runPass(spark, first.map(_.task))
    for ((o, ref) <- after.outcomes.zip(first); e <- o.error.orElse(
        Option.when(o.fingerprint != ref.fingerprint)("result changed between passes")))
      failures += s"${o.task.label}: $e"
    passes += after
    def med(f: Outcome => Double) = medianPass(passes.toSeq)(f)

    val spansFile = args.out.resolve(s"spans-${workload.name}-seed${args.seed}.tsv")
    tr.write(spansFile)
    out(s"# ${tr.all.size} spans written to $spansFile")
    val self = tr.selfTimes.withDefaultValue(0L)
    def selfS(name: String) = self(name) / 1e9
    def cnt(name: String) = tr.counts.getOrElse(name, 0L).toDouble
    val tracedExplain = tr.all.filter(_.name == "explain").map(s => s.end - s.start).sum / 1e9

    untraced ++ Seq(
      "gen.collect_s" -> Metric(Stats.median(setups.map(_.collect)), "s"),
      "gen.generate_s" -> Metric(Stats.median(setups.map(_.generate)), "s"),
      "spark.overlap_s" -> Metric(med(_.overlapSeconds), "s"),
      "spark.overlap_calls" -> Metric(hs.size.toDouble, "count"),
      "spark.overlap_pairs" -> Metric(hs.map(_.overlapPairs.toDouble).sum, "count"),
      "spark.id_attrs" -> Metric(hs.flatMap(_.fingerprint).map(_.idAttrs.fold(0)(_.size).toDouble).sum, "count"),
      "search.run_s" -> Metric(med(_.searchSeconds), "s"),
      "search.polls" -> Metric(counted.flatMap(_.fingerprint).map(_.polls.toDouble).sum, "count"),
      "search.states" -> Metric(counted.flatMap(_.fingerprint).map(_.states.toDouble).sum, "count"),
      "search.fallbacks" -> Metric(counted.count(_.fellBack).toDouble, "count"),
      "search.alloc_gb" -> Metric(med(_.searchAllocBytes.toDouble) / 1e9, "GB"),
      "search.loop_s" -> Metric(selfS("search.run"), "s"),
      "search.extend_s" -> Metric(selfS("search.extend"), "s"),
      "search.extend_calls" -> Metric(cnt("search.extend_calls"), "count"),
      "search.state_cost_s" -> Metric(selfS("search.state_cost"), "s"),
      "search.queue_s" -> Metric(selfS("search.queue"), "s"),
      "search.refined_cost_s" -> Metric(selfS("search.refined_cost"), "s"),
      "search.refined_cost_calls" -> Metric(cnt("search.refined_cost_calls"), "count"),
      "search.extensions_out" -> Metric(cnt("search.extensions_out"), "count"),
      "search.kept_ratio" -> Metric(
        if (cnt("induction.candidates") == 0) 0.0 else cnt("search.probe_kept") / cnt("induction.candidates"), "ratio"),
      "blocking.block_s" -> Metric(selfS("blocking.block"), "s"),
      "blocking.block_calls" -> Metric(cnt("blocking.block_calls"), "count"),
      "blocking.max_block" -> Metric(cnt("blocking.max_block"), "records"),
      "blocking.indeterminacy_s" -> Metric(selfS("blocking.indeterminacy"), "s"),
      "induction.induce_s" -> Metric(selfS("induction.induce"), "s"),
      "induction.candidates" -> Metric(cnt("induction.candidates"), "count"),
      "sampling.greedy_map_s" -> Metric(selfS("sampling.greedy_map"), "s"),
      "model.validate_s" -> Metric(med(_.validateSeconds), "s"),
      "jvm.gc_s" -> Metric(Stats.median(passes.toSeq.map(_.gcSeconds)), "s"),
      "jvm.gc_count" -> Metric(Stats.median(passes.toSeq.map(_.gcCount.toDouble)), "count"),
      "trace.overhead_s" -> Metric(tracedExplain - after.explain, "s"),
    )
  }
}
