package repro.eval

import org.scalatest.funsuite.AnyFunSuite

/** `Table2`'s checks and TSV on hand-built results; no Spark session. */
class Table2Spec extends AnyFunSuite {

  private def run(ds: String, eta: Double, config: String, acc: Double) =
    RunResult(ds, eta, eta, config, seconds = 1.0, dCore = 1.0, dCosts = 1.0, acc = acc)

  /** Every setting and config of `ds`, with H^id and H^s accuracies. */
  private def dataset(ds: String, hid: Double, hs: Double): Seq[RunResult] =
    for ((eta, _) <- PaperNumbers.settings; (cfg, acc) <- Seq(Protocol.Hid -> hid, Protocol.Hs -> hs))
      yield run(ds, eta, cfg, acc)

  private def violations(rs: Seq[RunResult]) = Table2.violations(Table2.aggregate(rs))

  test("clean results yield no violations") {
    assert(violations(dataset("iris", 1.0, 1.0) ++ dataset("chess", 0.98, 0.3)).isEmpty)
  }

  test("an H^id accuracy below 0.6 at η = 0.3 is reported") {
    val rs = dataset("iris", 1.0, 1.0).map(r =>
      if (r.config == Protocol.Hid && r.eta == 0.3) r.copy(acc = 0.5) else r)
    assert(violations(rs) == Seq("H^id accuracy collapsed on iris (η=0.3): 0.50"))
    // Only the easy setting has the floor.
    val hard = dataset("iris", 1.0, 1.0).map(r => if (r.eta == 0.7) r.copy(acc = 0.5) else r)
    assert(violations(hard).isEmpty)
  }

  test("H^id not above H^s is reported on chess, letter and nursery only") {
    assert(violations(dataset("chess", 0.8, 0.8)) == Seq("chess: expected H^id (0.80) > H^s (0.80)"))
    assert(violations(dataset("nursery", 0.7, 0.9)).size == 1)
    assert(violations(dataset("iris", 0.8, 0.9)).isEmpty)
    // With one configuration missing the shape check does not apply.
    assert(violations(dataset("letter", 0.7, 0.9).filter(_.config == Protocol.Hid)).isEmpty)
  }

  test("the TSV has the fixed header and one sorted row per aggregate") {
    val rs = dataset("iris", 1.0, 0.9) ++ dataset("chess", 0.98, 0.3) ++
      dataset("chess", 0.96, 0.3).filter(_.eta == 0.5)
    val lines = Table2.tsv(Table2.aggregate(rs)).split("\n").toSeq
    assert(lines.head == "dataset\teta\ttau\tconfig\tinstances\tt\tdCore\tdCosts\tacc")
    val rows = lines.tail.map(_.split("\t").toSeq)
    assert(rows.size == 12)
    assert(rows.map(r => (r(0), r(3), r(1))) == (for {
      ds <- Seq("chess", "iris"); cfg <- Seq(Protocol.Hid, Protocol.Hs); eta <- Seq("0.3", "0.5", "0.7")
    } yield (ds, cfg, eta)))
    assert(rows.head == Seq("chess", "0.3", "0.3", "Hid", "1", "1.000", "1.000", "1.000", "0.980"))
    assert(rows(1) == Seq("chess", "0.5", "0.5", "Hid", "2", "1.000", "1.000", "1.000", "0.970"))
  }
}
