package repro.spark

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.eval.Protocol
import repro.gen.ProblemGen

class SnapshotDiffSpec extends SparkSpec {

  private def df(rows: Seq[(String, String, String)]) = {
    val spark0 = spark
    import spark0.implicits._
    rows.zipWithIndex
      .map { case ((id, a, b), i) => (i.toLong, id, a, b) }
      .toDF("__row", "id", "a", "b")
  }

  private val s = df(Seq(("1", "x", "p"), ("2", "y", "q"), ("3", "z", "r")))
  private val t = df(Seq(("1", "x", "p"), ("2", "y2", "q"), ("4", "w", "s")))

  test("keyed diff finds deletions") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    assert(rep.deleted.select("id").collect().map(_.getString(0)).toSet == Set("3"))
  }

  test("keyed diff finds insertions") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    assert(rep.inserted.select("id").collect().map(_.getString(0)).toSet == Set("4"))
  }

  test("keyed diff finds updates with before/after values") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    val upd = rep.updated.collect()
    assert(upd.length == 1)
    val r = upd(0)
    assert(r.getAs[String]("id") == "2")
    assert(r.getAs[String]("s_a") == "y" && r.getAs[String]("t_a") == "y2")
  }

  test("oracle: deletions match DuckDB's anti join") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    Oracle.assertEquivalent(
      rep.deleted.select("id", "a", "b"),
      "SELECT id, a, b FROM s WHERE id NOT IN (SELECT id FROM t)",
      "s" -> s.select("id", "a", "b"), "t" -> t.select("id", "a", "b"))
  }

  test("oracle: insertions match DuckDB's anti join") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    Oracle.assertEquivalent(
      rep.inserted.select("id", "a", "b"),
      "SELECT id, a, b FROM t WHERE id NOT IN (SELECT id FROM s)",
      "s" -> s.select("id", "a", "b"), "t" -> t.select("id", "a", "b"))
  }

  test("oracle: updates match DuckDB's join with difference predicate") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    Oracle.assertEquivalent(
      rep.updated.select(col("id"), col("s_a"), col("t_a")),
      """SELECT s.id AS id, s.a AS s_a, t.a AS t_a
        |FROM s JOIN t ON s.id = t.id
        |WHERE s.a <> t.a OR s.b <> t.b""".stripMargin,
      "s" -> s.select("id", "a", "b"), "t" -> t.select("id", "a", "b"))
  }

  test("the keyed baseline mis-aligns everything under key reassignment") {
    // The motivating failure: pk permuted between snapshots. Affidavit
    // ignores the broken key and recovers the alignment.
    for ((name, seed, bound) <- Seq(("iris", 21L, 0.1), ("bridges", 31L, 0.2), ("breast", 31L, 0.2))) {
      val p = ProblemGen.generate(ProblemGen.collectDataset(spark, name), 0.3, 0.3, seed)
      val sDf = ProblemGen.toDf(spark, p.inst, p.inst.source)
      val tDf = ProblemGen.toDf(spark, p.inst, p.inst.target)
      val truth = p.reference.alignment.map { case (a, b) => (a.toLong, b.toLong) }.toSet
      val acc = SnapshotDiff.keyAlignmentAccuracy(sDf, tDf, Seq("pk"), truth)
      assert(acc < bound, s"$name: keyed accuracy $acc")
      val affidavit = Protocol.evaluate(spark, p, Protocol.Hid).acc
      assert(affidavit > acc, s"$name: Affidavit accuracy $affidavit vs keyed $acc")
    }
  }

  test("the keyed baseline is perfect when keys are stable") {
    val acc = SnapshotDiff.keyAlignmentAccuracy(
      s, s, Seq("id"), Set((0L, 0L), (1L, 1L), (2L, 2L)))
    assert(acc == 1.0)
    // A self-diff of a generated instance (τ = 0: values unchanged) is empty.
    val p = ProblemGen.generate(ProblemGen.collectDataset(spark, "iris"), 0.3, 0.0, seed = 32)
    val sDf = ProblemGen.toDf(spark, p.inst, p.inst.source)
    val rep = SnapshotDiff.diff(sDf, sDf, Seq("pk"))
    assert(rep.deleted.count() == 0 && rep.inserted.count() == 0 && rep.updated.count() == 0)
  }

  test("the keyed baseline pairs records on the key columns, not on a concatenation") {
    val key = Seq("a", "b")
    val s2 = df(Seq(("s0", "1", "23"), ("s1", "x", "y")))
    val t2 = df(Seq(("t0", "12", "3"), ("t1", "x", "y")))
    assert(SnapshotDiff.keyAlignmentAccuracy(s2, t2, key, Set((1L, 1L))) == 1.0)
    // A null key pairs with nothing, and no separator char joins two values.
    val s3 = df(Seq(("s0", null, "z"), ("s1", "x", "y"), ("s2", "p\u0001q", "r")))
    val t3 = df(Seq(("t0", "z", null), ("t1", "x", "y"), ("t2", "p", "q\u0001r")))
    assert(SnapshotDiff.keyAlignmentAccuracy(s3, t3, key, Set((1L, 1L))) == 1.0)
  }
}
