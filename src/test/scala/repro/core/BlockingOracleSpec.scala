package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.{Oracle, SparkSpec}
import repro.core.blocking.LocalBlocking
import repro.core.functions.Funcs._
import repro.core.model.{AttrFunc, RunningExample}

/** The local blocking engine must agree with DuckDB's aggregation of the
  * transformed key tuples: one block per distinct key, with the same
  * source and target counts.
  */
class BlockingOracleSpec extends SparkSpec {

  private val inst = RunningExample.instance

  private val states: Seq[Seq[(Int, AttrFunc)]] = Seq(
    Seq((3, Identity)),
    Seq((3, Identity), (6, Identity)),
    Seq((3, Identity), (5, Const("k $")), (6, Identity)),
    Seq((4, Div(BigDecimal(1000)))),
    Seq((2, PrefixReplace("9999123", "2018070")), (3, Identity)),
  )

  private def keys(n: Int): Seq[String] = (0 until n).map(i => s"k$i")

  private def sKey(rec: Array[String], decided: Seq[(Int, AttrFunc)]): Seq[String] =
    decided.map { case (i, f) => f(rec(i)) }

  private def tKey(rec: Array[String], decided: Seq[(Int, AttrFunc)]): Seq[String] =
    decided.map { case (i, _) => rec(i) }

  /** Rows of string key columns `k0…`, then long columns `longs`. */
  private def df(rows: Seq[Seq[Any]], n: Int, longs: String*): DataFrame =
    spark.createDataFrame(
      rows.map(Row.fromSeq).asJava,
      StructType(keys(n).map(StructField(_, StringType)) ++ longs.map(StructField(_, LongType))))

  /** The keyed snapshots as DuckDB tables `sk` and `tk`. */
  private def tables(decided: Seq[(Int, AttrFunc)]): Seq[(String, DataFrame)] = Seq(
    "sk" -> df(inst.source.toSeq.map(sKey(_, decided)), decided.size),
    "tk" -> df(inst.target.toSeq.map(tKey(_, decided)), decided.size))

  /** DuckDB's per-block counts: both sides grouped by key, full outer join. */
  private def duckBlocks(n: Int): String = {
    val ks = keys(n).mkString(", ")
    s"""WITH s AS (SELECT $ks, count(*) AS s_cnt FROM sk GROUP BY $ks),
       |     t AS (SELECT $ks, count(*) AS t_cnt FROM tk GROUP BY $ks)
       |SELECT ${keys(n).map(k => s"coalesce(s.$k, t.$k) AS $k").mkString(", ")},
       |       coalesce(s_cnt, 0) AS s_cnt, coalesce(t_cnt, 0) AS t_cnt
       |FROM s FULL OUTER JOIN t ON ${keys(n).map(k => s"s.$k = t.$k").mkString(" AND ")}""".stripMargin
  }

  /** Each local block as (key…, s_cnt, t_cnt), keyed by its first record. */
  private def localBlocks(decided: Seq[(Int, AttrFunc)]): Seq[Seq[Any]] =
    LocalBlocking.block(inst, decided.toArray).blocks.toSeq.map { b =>
      val key =
        if (b.src.nonEmpty) sKey(inst.source(b.src(0)), decided)
        else tKey(inst.target(b.tgt(0)), decided)
      key ++ Seq(b.src.length.toLong, b.tgt.length.toLong)
    }

  test("oracle: per-block counts match DuckDB's aggregation") {
    for (decided <- states)
      Oracle.assertEquivalent(
        df(localBlocks(decided), decided.size, "s_cnt", "t_cnt"),
        duckBlocks(decided.size),
        tables(decided): _*)
  }

  test("ct and cs equal DuckDB's sums across partial states") {
    for (decided <- states) {
      val local = LocalBlocking.block(inst, decided.toArray)
      Oracle.assertEquivalent(
        df(Seq(Seq(local.ct.toLong, local.cs.toLong)), 0, "ct", "cs"),
        s"""SELECT CAST(sum(greatest(t_cnt - s_cnt, 0)) AS BIGINT) AS ct,
           |       CAST(sum(greatest(s_cnt - t_cnt, 0)) AS BIGINT) AS cs
           |FROM (${duckBlocks(decided.size)})""".stripMargin,
        tables(decided): _*)
    }
  }

  test("block counts sum to the snapshot sizes") {
    val blocks = LocalBlocking.block(inst, states(2).toArray).blocks
    assert(blocks.map(_.src.length).sum == 17 && blocks.map(_.tgt.length).sum == 16)
  }

  test("figure 3 block appears in the local blocking result") {
    val fig3 = localBlocks(states(2)).filter(_.take(3) == Seq("C", "k $", "SAP"))
    assert(fig3 == Seq(Seq("C", "k $", "SAP", 3L, 2L)))
  }

  test("bounds with no decided attributes fall back to totals") {
    val local = LocalBlocking.block(inst, Array.empty[(Int, AttrFunc)])
    assert(local.ct == 0 && local.cs == 1) // |S| = 17, |T| = 16
  }
}
