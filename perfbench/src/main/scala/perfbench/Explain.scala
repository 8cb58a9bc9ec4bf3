package perfbench

import java.lang.management.ManagementFactory

import scala.util.Random
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.blocking.LocalBlocking
import repro.core.functions.Funcs
import repro.core.model.{Costs, Explanation, LocalInstance}
import repro.core.search._
import repro.eval.{Protocol, RunResult}
import repro.gen.ProblemGen
import repro.spark.OverlapMatcher

/** What must repeat exactly for one task at a fixed seed. */
final case class Fingerprint(cost: Double, polls: Int, states: Int, funcs: Vector[String], idAttrs: Option[Set[Int]]) {

  /** The part a traced re-drive can reproduce (it cannot see the
    * search's private state counter).
    */
  def searchPart: (Double, Int, Vector[String], Option[Set[Int]]) = (cost, polls, funcs, idAttrs)
}

/** The measured outcome of one explain call. `error` is set when the call
  * threw or its output failed a check; a failed call carries no result.
  */
final case class Outcome(
    task: Task,
    seconds: Double,
    overlapSeconds: Double,
    searchSeconds: Double,
    validateSeconds: Double,
    allocBytes: Long,
    searchAllocBytes: Long,
    overlapPairs: Long,
    fellBack: Boolean,
    judged: Option[RunResult],
    fingerprint: Option[Fingerprint],
    error: Option[String],
) {
  def failed: Boolean = error.isDefined
}

/** The explain step, as `Protocol.evaluate` performs it, with the
  * benchmark's own timers around each layer: `ProblemGen.toDf` plus
  * `OverlapMatcher.compute` (H^s only), then `Affidavit.run`, then
  * `Protocol.judge` (untimed). Every output is checked.
  */
object Explain {

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  def configFor(task: Task): AffidavitConfig = task.config match {
    case Protocol.Hid => AffidavitConfig.hidConfig(task.problem.seed)
    case Protocol.Hs  => AffidavitConfig.hsConfig(task.problem.seed)
    case other        => sys.error(s"unknown config: $other")
  }

  /** The H^s start-state bootstrap: both snapshots as DataFrames, then the
    * overlap matcher.
    */
  def overlap(spark: SparkSession, inst: LocalInstance): OverlapMatcher.OverlapResult = {
    val sDf = ProblemGen.toDf(spark, inst, inst.source)
    val tDf = ProblemGen.toDf(spark, inst, inst.target)
    OverlapMatcher.compute(sDf, tDf, inst.attrs)
  }

  /** The trivial explanation E∅ that `Affidavit.run` falls back to. */
  def isTrivial(inst: LocalInstance, e: Explanation): Boolean =
    e.alignment.isEmpty && e.funcs.forall(_ == Funcs.Identity) &&
      e.inserted.length == inst.target.length

  /** Untraced explain of one task. */
  def run(spark: SparkSession, task: Task): Outcome = {
    val inst = task.problem.inst
    val cfg = configFor(task)
    try {
      val a0 = allocated()
      val t0 = System.nanoTime()
      val ov = if (task.config == Protocol.Hs) Some(overlap(spark, inst)) else None
      val init = ov.fold[InitStrategy](InitStrategy.Id)(o => InitStrategy.Overlap(o.idAttrs))
      val t1 = System.nanoTime()
      val a1 = allocated()
      val res = Affidavit.run(inst, cfg, init)
      val t2 = System.nanoTime()
      val a2 = allocated()
      val seconds = (t2 - t0) / 1e9
      val judged = Protocol.judge(task.problem, res, seconds, task.config, cfg.alpha)

      val v0 = System.nanoTime()
      val error = check(inst, res.explanation, res.cost, cfg.alpha)
      val validate = (System.nanoTime() - v0) / 1e9
      val fp = Fingerprint(res.cost, res.polls, res.statesEvaluated,
        res.explanation.funcs.map(_.describe), ov.map(_.idAttrs))
      Outcome(task, seconds, (t1 - t0) / 1e9, (t2 - t1) / 1e9, validate, a2 - a0, a2 - a1,
        ov.fold(0L)(_.pairs), isTrivial(inst, res.explanation),
        if (error.isEmpty) Some(judged) else None, if (error.isEmpty) Some(fp) else None, error)
    } catch {
      case NonFatal(e) =>
        Outcome(task, 0, 0, 0, 0, 0, 0, 0, fellBack = false, None, None, Some(s"threw ${e.getClass.getName}: ${e.getMessage}"))
    }
  }

  /** Validity (Def. 3.5) and cost coherence of one output. */
  def check(inst: LocalInstance, e: Explanation, reported: Double, alpha: Double): Option[String] = {
    val expected = Costs.explanationCost(inst, e, alpha)
    if (!e.isValidFor(inst)) Some("explanation is not valid for its instance")
    else if (reported != expected) Some(s"reported cost $reported != explanation cost $expected")
    else None
  }
}

/** The traced explain: re-drives Algorithm 1's outer loop through the
  * public `Affidavit.startStates`/`stateCost`/`extensions` and `LevelQueue`,
  * exactly as `Affidavit.run` does, and on each expanded state times the
  * layer calls of the first extension batch once more, one by one.
  */
object TracedExplain {

  /** Result of a traced explain: the same facts `Affidavit.run` reports. */
  final case class Result(explanation: Explanation, cost: Double, polls: Int, endStateCost: Option[Double], idAttrs: Option[Set[Int]])

  def run(spark: SparkSession, task: Task, tr: Tracer): Result = {
    val inst = task.problem.inst
    val cfg = Explain.configFor(task)
    tr.newRequest()
    tr.span("explain") {
      val ov =
        if (task.config == Protocol.Hs) Some(tr.span("spark.overlap")(Explain.overlap(spark, inst)))
        else None
      val init = ov.fold[InitStrategy](InitStrategy.Id)(o => InitStrategy.Overlap(o.idAttrs))
      tr.span("search.run")(search(inst, cfg, init, tr)).copy(idAttrs = ov.map(_.idAttrs))
    }
  }

  /** Algorithm 1's outer loop, step for step as in `Affidavit.run`. */
  def search(inst: LocalInstance, cfg: AffidavitConfig, init: InitStrategy, tr: Tracer): Result = {
    val aff = new Affidavit(inst, cfg)
    val probeAff = new Affidavit(inst, cfg)
    val queue = new LevelQueue(cfg.queueWidth)
    for (h <- aff.startStates(init)) {
      val c = tr.span("search.state_cost")(aff.stateCost(h))
      tr.span("search.queue")(queue.offer(h, c))
    }
    var polls = 0
    var end: Option[(State, Double)] = None
    while (queue.nonEmpty && end.isEmpty && polls < cfg.maxPolls) {
      val (h, c) = tr.span("search.queue")(queue.poll())
      polls += 1
      if (h.isEnd) end = Some((h, c))
      else {
        tr.span("search.probe")(probe(inst, cfg, probeAff, h, tr))
        val ext = tr.span("search.extend")(aff.extensions(h))
        tr.count("search.extend_calls")
        tr.count("search.extensions_out", ext.size.toLong)
        tr.span("search.queue")(ext.foreach { case (e, ec) => queue.offer(e, ec) })
      }
    }
    end match {
      case Some((h, c)) =>
        val e = Affidavit.toExplanation(inst, h)
        Result(e, Costs.explanationCost(inst, e, cfg.alpha), polls, Some(c), None)
      case None =>
        val e = Explanation(Vector.fill(inst.d)(Funcs.Identity), Vector.empty,
          inst.source.indices.toVector, inst.target.indices.toVector)
        Result(e, Costs.explanationCost(inst, e, cfg.alpha), polls, None, None)
    }
  }

  /** Time the layer calls of the first extension batch of `h` once, with
    * the same random draws `Affidavit.extensions` makes. `probeAff` is a
    * separate search object, so the probe never touches the traced search.
    */
  private def probe(inst: LocalInstance, cfg: AffidavitConfig, probeAff: Affidavit, h: State, tr: Tracer): Unit = {
    val blocking = tr.span("blocking.block")(LocalBlocking.block(inst, h.decided))
    tr.count("blocking.block_calls")
    tr.max("blocking.max_block", blocking.blocks.iterator.map(b => b.src.length + b.tgt.length).max.toLong)
    val rnd = new Random(cfg.seed ^ scala.util.hashing.MurmurHash3.stringHash(h.signature).toLong)
    val ordered = tr.span("blocking.indeterminacy") {
      h.undecided
        .map(a => (a, LocalBlocking.indeterminacy(inst, blocking, a)))
        .sortBy { case (a, ind) => (ind, a) }
        .map(_._1)
    }
    val alignment = tr.span("sampling.greedy_map")(Sampling.randomAlignment(blocking, rnd))
    for (a <- ordered.take(cfg.beta)) {
      val g = tr.span("sampling.greedy_map")(Sampling.greedyMap(inst, alignment, a))
      val cg = tr.span("search.refined_cost")(probeAff.refinedCost(h, blocking, a, g))
      val candidates = tr.span("induction.induce")(Induction.induceCandidates(inst, blocking, a, cfg, rnd))
      tr.count("search.refined_cost_calls", 1L + candidates.size)
      tr.count("induction.candidates", candidates.size.toLong)
      for (f <- candidates) {
        val cf = tr.span("search.refined_cost")(probeAff.refinedCost(h, blocking, a, f))
        if (cf < cg) tr.count("search.probe_kept")
      }
    }
  }
}
