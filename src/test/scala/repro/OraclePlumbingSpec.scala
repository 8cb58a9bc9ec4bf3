package repro

import org.apache.spark.sql.functions._

import repro.core.model.RunningExample
import repro.gen.ProblemGen

/** Plumbing checks for the DuckDB oracle on the paper's running example. */
class OraclePlumbingSpec extends SparkSpec {

  private val inst = RunningExample.instance
  private lazy val sDf = ProblemGen.toDf(spark, inst, inst.source).select(inst.attrs.map(col): _*)
  private val sql = "SELECT Org, Unit, count(*) AS n FROM s GROUP BY Org, Unit"

  test("oracle agrees on a running-example aggregate") {
    val q = sDf.groupBy("Org", "Unit").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(q, sql, "s" -> sDf)
  }

  test("oracle catches a wrong result") {
    val wrong = sDf.groupBy("Org", "Unit").agg((count(lit(1)) + 1).as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "s" -> sDf)
    }
  }
}
