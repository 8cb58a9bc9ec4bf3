package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The overlap-score initialization H^s (§4.2), expressed as DataFrame
  * joins and aggregations.
  *
  * Candidate record pairs are generated by joining the melted snapshots on
  * (attribute, value), skipping attribute values whose source×target
  * frequency product exceeds `maxBlock` (the paper's configurable maximum
  * block size, default 100 000). Each candidate pair is then scored with
  * the *full* attribute overlap (1 per attribute with identical values);
  * for every source record the best-scoring target is kept. The modal
  * score k' over these pairs estimates the number of unchanged attributes,
  * and the k' most frequently overlapping attributes form the id-assigned
  * start state.
  */
object OverlapMatcher {

  /** Result: the chosen id-attribute indices (empty ⇒ fall back to H^∅),
    * and for diagnostics the modal score k′ and the number of best pairs.
    */
  final case class OverlapResult(idAttrs: Set[Int], modalScore: Int, pairs: Long)

  /** Melt a snapshot to (rid, attr, value). */
  private def melt(df: DataFrame, attrs: Seq[String]): DataFrame = {
    val stacked = attrs.zipWithIndex
      .map { case (a, i) => s"$i, `$a`" }
      .mkString(", ")
    df.selectExpr("__row as rid", s"stack(${attrs.size}, $stacked) as (attr, value)")
      .where(col("value").isNotNull)
  }

  def compute(
      s: DataFrame,
      t: DataFrame,
      attrs: Seq[String],
      maxBlock: Long = 100000L,
  ): OverlapResult = {
    val d = attrs.size
    val ms = melt(s, attrs)
    val mt = melt(t, attrs)

    // Frequency filter: drop attribute values whose pair product explodes.
    val sCnt = ms.groupBy("attr", "value").agg(count(lit(1)).as("s_cnt"))
    val tCnt = mt.groupBy("attr", "value").agg(count(lit(1)).as("t_cnt"))
    val allowed = sCnt
      .join(tCnt, Seq("attr", "value"))
      .where(col("s_cnt") * col("t_cnt") <= maxBlock)
      .select("attr", "value")

    val candidates = ms
      .join(allowed, Seq("attr", "value"))
      .select(col("rid").as("srid"), col("attr"), col("value"))
      .join(
        mt.join(allowed, Seq("attr", "value"))
          .select(col("rid").as("trid"), col("attr"), col("value")),
        Seq("attr", "value"))
      .select("srid", "trid")
      .distinct()

    // Full overlap score per candidate pair.
    val sWide = s.select(col("__row").as("srid") +: attrs.zipWithIndex.map { case (a, i) =>
      col(a).as(s"s_$i")
    }: _*)
    val tWide = t.select(col("__row").as("trid") +: attrs.zipWithIndex.map { case (a, i) =>
      col(a).as(s"t_$i")
    }: _*)
    val matchCols: Seq[Column] = (0 until d).map { i =>
      when(col(s"s_$i") === col(s"t_$i"), 1).otherwise(0)
    }
    val scored = candidates
      .join(sWide, "srid")
      .join(tWide, "trid")
      .withColumn("score", matchCols.reduce(_ + _))

    // Best target per source record (ties break by target row id).
    val w = Window.partitionBy("srid").orderBy(col("score").desc, col("trid").asc)
    val outCols: Seq[Column] =
      Seq(col("srid"), col("trid"), col("score")) ++
        (0 until d).map(i => coalesce(col(s"s_$i") === col(s"t_$i"), lit(false)).as(s"m_$i"))
    val best = scored
      .withColumn("rn", row_number().over(w))
      .where(col("rn") === 1)
      .select(outCols: _*)

    val rows = best.collect()
    if (rows.isEmpty) return OverlapResult(Set.empty, 0, 0L)

    // Modal score k' and per-attribute overlap frequency over best pairs.
    val scoreIdx = rows.head.fieldIndex("score")
    val modal = rows
      .groupBy(_.getInt(scoreIdx))
      .toSeq
      .maxBy { case (sc, rs) => (rs.length, sc) }
      ._1
    val attrCounts = (0 until d).map { i =>
      val fi = rows.head.fieldIndex(s"m_$i")
      i -> rows.count(r => !r.isNullAt(fi) && r.getBoolean(fi))
    }
    val kPrime = math.max(1, modal)
    val idAttrs = attrCounts.sortBy { case (i, c) => (-c, i) }.take(kPrime).map(_._1).toSet
    OverlapResult(idAttrs, modal, rows.length.toLong)
  }
}
