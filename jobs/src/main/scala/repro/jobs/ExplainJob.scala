package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.search.Affidavit
import repro.eval.Protocol
import repro.gen.ProblemGen

/** Diagnostic entrypoint: run one configuration on one generated instance
  * once, with the configuration and start states of `Protocol.evaluate`,
  * and print the search's polls, states and cost, the H^s overlap decision
  * next to the truly unchanged attributes, and every learned function next
  * to the reference.
  *
  * Usage: ExplainJob [dataset] [η (= τ)] [seed] [Hid|Hs]
  */
object ExplainJob {
  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("adult")
    val eta = args.lift(1).fold(0.7)(_.toDouble)
    val seed = args.lift(2).fold(2007L)(_.toLong)
    val config = args.lift(3).getOrElse(Protocol.Hid)

    val spark = SparkSession.builder.master("local[*]").appName("explain")
      .config("spark.ui.enabled", false).getOrCreate()
    try {
      val p = ProblemGen.generate(ProblemGen.collectDataset(spark, name), eta, eta, seed)
      val attrs = p.inst.attrs
      val t0 = System.nanoTime()
      val (cfg, init, overlap) = Protocol.setup(spark, p, config)
      val res = Affidavit.run(p.inst, cfg, init)
      val r = Protocol.judge(p, res, (System.nanoTime() - t0) / 1e9, config, cfg.alpha)
      println(f"t=${r.seconds}%.2f dCore=${r.dCore}%.3f dCosts=${r.dCosts}%.3f acc=${r.acc}%.3f")
      println(s"polls=${res.polls} states=${res.statesEvaluated} cost=${res.cost}")
      for (o <- overlap) {
        println(s"H^s pairs=${o.pairs} modalScore=${o.modalScore} idAttrs=${o.idAttrs.toSeq.sorted.map(attrs)}")
        println(s"truly unchanged=${attrs.indices.filter(p.reference.funcs(_).isIdentity).map(attrs)}")
      }
      for ((a, i) <- attrs.zipWithIndex) {
        val found = res.explanation.funcs(i).describe
        val ref = p.reference.funcs(i).describe
        val mark = if (found == ref) "  " else "!!"
        println(f"$mark $a%-16s found=${found.take(50)}%-52s ref=${ref.take(50)}")
      }
    } finally spark.stop()
  }
}
