package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._

import repro.core.model.{AttrFunc, Explanation}

/** Applies an explanation's attribute functions F^E to a snapshot
  * DataFrame (Def. 3.4: the core image is `F^E(S^E)`).
  *
  * The headline capability of the paper: a learned explanation
  * *generalizes*, i.e. it can transform additional, unseen records of the
  * source table — here: any DataFrame with the instance's schema.
  */
object ExplanationApplier {

  /** Wrap an [[AttrFunc]] as a Spark UDF — the identical code path as the
    * driver engine, so the two can never disagree.
    */
  def funcUdf(f: AttrFunc): UserDefinedFunction = udf((x: String) => f(x))

  /** Transform every attribute column with its assigned function; other
    * columns (e.g. `__row`) pass through untouched.
    */
  def transform(s: DataFrame, attrs: Vector[String], funcs: Vector[AttrFunc]): DataFrame = {
    require(attrs.size == funcs.size, "one function per attribute")
    attrs.zip(funcs).foldLeft(s) { case (df, (a, f)) =>
      if (f.isIdentity) df else df.withColumn(a, funcUdf(f)(col(a)))
    }
  }

  /** The rows of `df` whose `__row` is not in `rows`: a left-anti join
    * against a one-column id DataFrame, so the plan does not grow with the
    * number of ids.
    */
  private def without(df: DataFrame, rows: Vector[Int]): DataFrame =
    if (rows.isEmpty) df
    else {
      val spark = df.sparkSession
      import spark.implicits._
      val ids = rows.map(_.toLong).toDF("id")
      df.join(ids, df("__row") === ids("id"), "left_anti")
    }

  /** Core image of an explanation: drop the deleted rows, then transform. */
  def coreImage(s: DataFrame, attrs: Vector[String], e: Explanation): DataFrame =
    transform(without(s, e.deleted), attrs, e.funcs)

  /** Number of core-image rows with no matching target row (multiset
    * semantics via per-tuple counts). 0 ⇔ the explanation's functions
    * reproduce `T \ T^E+` exactly (Def. 3.5).
    */
  def unmatchedCoreImage(
      s: DataFrame,
      t: DataFrame,
      attrs: Vector[String],
      e: Explanation,
  ): Long = {
    val img = coreImage(s, attrs, e).groupBy(attrs.map(col): _*).agg(count(lit(1)).as("i_cnt"))
    val tgt = without(t, e.inserted).groupBy(attrs.map(col): _*).agg(count(lit(1)).as("t_cnt"))
    val row = img
      .join(tgt, attrs, "full_outer")
      .agg(
        sum(
          greatest(
            coalesce(col("i_cnt"), lit(0L)) - coalesce(col("t_cnt"), lit(0L)),
            lit(0L))).as("unmatched"))
      .collect()(0)
    if (row.isNullAt(0)) 0L else row.getLong(0)
  }
}
