package repro.eval

import scala.io.{Codec, Source}

import repro.SparkSpec
import repro.core.search.{Affidavit, AffidavitConfig, AffidavitResult, InitStrategy}
import repro.gen.{Dataset, ProblemGen}

/** Behaviour lock: the search must reproduce pinned explanations (cost,
  * polls, states evaluated, core size and every function's `describe`) on
  * a small matrix of paper datasets. H^s cells use the id attributes stored
  * in the resource, so no overlap job runs.
  *
  * Resource columns (tab-separated): dataset, η (= τ), config, seed,
  * id attributes (comma-separated, `-` for H^id), cost, polls, states,
  * core size, then one `describe` per attribute.
  */
class GoldenExplanationsSpec extends SparkSpec {

  private val rows: Vector[Array[String]] = {
    val src = Source.fromResource("golden-explanations.tsv", getClass.getClassLoader)(Codec.UTF8)
    try src.getLines().filterNot(_.startsWith("#")).map(_.split("\t", -1)).toVector
    finally src.close()
  }

  private val datasets = scala.collection.mutable.Map.empty[String, Dataset]

  test("the golden matrix covers every pinned cell") {
    assert(rows.size == 20)
  }

  for (row <- rows) {
    val Array(name, eta, config, seed, ids) = row.take(5)
    test(s"$name η=$eta $config seed=$seed reproduces its pinned explanation") {
      val ds = datasets.getOrElseUpdate(name, ProblemGen.collectDataset(spark, name))
      val idAttrs = if (ids == "-") Set.empty[Int] else ids.split(",").map(_.toInt).toSet
      val res = GoldenExplanationsSpec.explain(ds, eta.toDouble, config, seed.toLong, idAttrs)
      assert(GoldenExplanationsSpec.line(row.take(5), res) == row.mkString("\t"))
    }
  }
}

object GoldenExplanationsSpec {

  /** One cell of the matrix, run as `Protocol.evaluate` runs it. */
  def explain(ds: Dataset, eta: Double, config: String, seed: Long, idAttrs: Set[Int]): AffidavitResult = {
    val p = ProblemGen.generate(ds, eta, eta, seed)
    val (cfg, init) = config match {
      case Protocol.Hid => (AffidavitConfig.hidConfig(seed), InitStrategy.Id)
      case Protocol.Hs  => (AffidavitConfig.hsConfig(seed), InitStrategy.Overlap(idAttrs))
      case other        => sys.error(s"unknown config: $other")
    }
    Affidavit.run(p.inst, cfg, init)
  }

  /** The resource line of a cell: its key columns plus the result. */
  def line(key: Seq[String], res: AffidavitResult): String =
    (key ++ Seq[Any](res.cost, res.polls, res.statesEvaluated, res.explanation.coreSize).map(_.toString) ++
      res.explanation.funcs.map(_.describe)).mkString("\t")
}
