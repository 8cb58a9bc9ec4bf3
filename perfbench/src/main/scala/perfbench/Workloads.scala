package perfbench

import repro.eval.{PaperNumbers, Protocol}
import repro.gen.{Dataset, Problem, ProblemGen}

/** One group of problem instances of `dataset` (its first `rows` records,
  * or all when `rows` is 0) at η = τ = `eta`: the first `hs` instances are
  * explained with H^s and the first `hid` with H^id.
  */
final case class Cell(dataset: String, rows: Int, eta: Double, hs: Int, hid: Int) {

  /** Index of the setting in Table 2 order; part of the instance seed. */
  val settingIndex: Int = PaperNumbers.settings.indexWhere(_._1 == eta)
  require(settingIndex >= 0, s"η=$eta is not a Table-2 setting")

  def subset(ds: Dataset): Dataset =
    if (rows <= 0 || rows >= ds.rows.length) ds else ds.copy(rows = ds.rows.take(rows))

  /** Instance `i`'s seed, from `Table2.runDataset`'s scheme. */
  def seed(seedBase: Long, i: Int): Long = seedBase + 1000L * settingIndex + i

  /** The configurations instance `i` is explained with. */
  def configs(i: Int): Seq[String] =
    Seq(Protocol.Hs -> hs, Protocol.Hid -> hid).collect { case (c, n) if i < n => c }

  def instances: Int = math.max(hs, hid)
}

/** One explain call of a pass: a problem instance and a configuration. */
final case class Task(problem: Problem, config: String) {
  def label: String = f"${problem.dataset}%s η=${problem.eta}%.1f seed=${problem.seed}%d ${config}%s"
}

/** A benchmark workload: a closed loop with one caller that explains every
  * task of a pass in order. `warmUpPasses` untimed passes come first; then
  * as many timed passes as fit into the run's seconds at `passSeconds` each
  * (at least one). The pass count depends only on the run's seconds, so
  * every run of a workload has the same number of samples.
  */
final case class Workload(name: String, cells: Seq[Cell], passSeconds: Double, warmUpPasses: Int = 0) {

  def timedPasses(seconds: Double): Int = math.max(1, math.round(seconds / passSeconds).toInt)

  def datasets: Seq[String] = cells.map(_.dataset).distinct

  /** Generate the pass's tasks from collected datasets. */
  def tasks(collected: Map[String, Dataset], seedBase: Long): Seq[Task] =
    for {
      c <- cells
      ds = c.subset(collected(c.dataset))
      i <- 0 until c.instances
      problem = ProblemGen.generate(ds, c.eta, c.eta, c.seed(seedBase, i))
      config <- c.configs(i)
    } yield Task(problem, config)
}

object Workloads {

  /** H^id search on large tables: blocking, induction and costing on huge
    * early blocks; Spark is not on the timed path. The tables are cut to
    * their first rows so that one pass takes about six seconds on four
    * cores. One untimed pass warms the JIT up first.
    */
  val hidSearch: Workload = Workload("hid-search", Seq(
    Cell("chess", 700, 0.3, hs = 0, hid = 8),
    Cell("adult", 1200, 0.3, hs = 0, hid = 8),
    Cell("letter", 400, 0.3, hs = 0, hid = 8),
  ), passSeconds = 6, warmUpPasses = 1)

  /** Both configurations at all three settings on small tables, where the
    * fixed cost of each Spark job and many cheap polls dominate, plus H^s on
    * a wide table, where the overlap matcher's volume dominates. H^s calls
    * are the majority, so the median call is a Spark-bound one.
    */
  val smallMixed: Workload = Workload("small-mixed",
    (for {
      ds <- Seq("iris", "balance", "bridges", "echo")
      (eta, _) <- PaperNumbers.settings
    } yield Cell(ds, 0, eta, hs = 2, hid = 1)) :+ Cell("flight-1k", 120, 0.3, hs = 1, hid = 0),
    passSeconds = 20)

  /** Both configurations on one small instance: every code path of the
    * benchmark in a few seconds, for its tests.
    */
  val smoke: Workload = Workload("smoke", Seq(Cell("iris", 0, 0.3, hs = 1, hid = 1)), passSeconds = 1)

  val all: Seq[Workload] = Seq(hidSearch, smallMixed, smoke)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
