package repro.spark

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.model.RunningExample
import repro.gen.ProblemGen

class ExplanationApplierSpec extends SparkSpec {

  private val inst = RunningExample.instance
  private lazy val sDf = ProblemGen.toDf(spark, inst, inst.source)
  private lazy val tDf = ProblemGen.toDf(spark, inst, inst.target)

  test("applying E1's functions to the core reproduces T \\ T+ exactly") {
    assert(ExplanationApplier.unmatchedCoreImage(sDf, tDf, inst.attrs, RunningExample.e1) == 0L)
  }

  test("the core image has |core| rows") {
    val img = ExplanationApplier.coreImage(sDf, inst.attrs, RunningExample.e1)
    assert(img.count() == RunningExample.e1.coreSize)
  }

  test("a wrong function is caught as unmatched rows") {
    val broken = RunningExample.e1.copy(
      funcs = RunningExample.e1.funcs.updated(4, repro.core.functions.Funcs.Identity))
    assert(ExplanationApplier.unmatchedCoreImage(sDf, tDf, inst.attrs, broken) > 0L)
  }

  test("explanations generalize: unseen records transform correctly") {
    // A record that was never part of I1 — the paper's headline use case.
    val unseen = ProblemGen.toDf(
      spark, inst, Array(Array("S99", "0099", "99991231", "D", "123000", "USD", "SAP")))
    val out = ExplanationApplier
      .transform(unseen, inst.attrs, RunningExample.e1.funcs)
      .select(inst.attrs.map(col): _*)
      .collect()(0)
    assert(out.getString(2) == "20180701") // date prefix replaced
    assert(out.getString(4) == "123")      // divided by 1000
    assert(out.getString(5) == "k $")      // unit constant
    assert(out.getString(6) == "SAP")      // identity
  }

  test("oracle: identity transform leaves the snapshot unchanged") {
    val id = inst.attrs.map(_ => repro.core.functions.Funcs.Identity: repro.core.model.AttrFunc)
    val out = ExplanationApplier.transform(sDf, inst.attrs, id.toVector)
      .select(inst.attrs.map(col): _*)
    Oracle.assertEquivalent(
      out,
      s"SELECT ${inst.attrs.mkString(", ")} FROM s",
      "s" -> sDf.select(inst.attrs.map(col): _*))
  }

  test("the plan does not grow with the number of deleted rows") {
    def planLength(deleted: Vector[Int]): Int =
      ExplanationApplier.coreImage(sDf, inst.attrs, RunningExample.e1.copy(deleted = deleted))
        .queryExecution.analyzed.toString.length
    val one = planLength(Vector(0))
    val many = planLength((0 until 1000).toVector)
    assert(math.abs(many - one) <= 64, s"plan length $one for 1 id, $many for 1000 ids")
  }

  test("funcUdf applies the same code path as the driver function") {
    val f = repro.core.functions.Funcs.Div(BigDecimal(1000))
    val out = sDf.select(ExplanationApplier.funcUdf(f)(col("Val")).as("v")).collect().map(_.getString(0))
    val expected = inst.source.map(r => f(r(4)))
    assert(out.sorted.toSeq == expected.sorted.toSeq)
  }

  test("transform keeps non-attribute columns like __row") {
    val out = ExplanationApplier.transform(sDf, inst.attrs, RunningExample.e1.funcs)
    assert(out.columns.contains("__row"))
    assert(out.count() == 17)
  }
}
