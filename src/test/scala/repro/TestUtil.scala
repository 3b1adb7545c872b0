package repro

import org.apache.spark.sql.DataFrame
import repro.columnar.Inter
import repro.core._

/** Cross-engine result canonicalization: rows → sorted Seq of string-vectors
  * using the same normalization as [[Oracle]] (doubles to 6 decimals, nulls
  * as ∅), with columns sorted by name so engines may emit columns in any
  * order.
  */
object Canon {
  def cell(v: Any): String = v match {
    case null                     => "∅"
    case d: Double                => f"$d%.6f"
    case f: Float                 => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
    case x                        => x.toString
  }

  def of(cols: Seq[String], rows: Seq[Seq[Any]]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf(_))
    rows.map(r => idx.map(i => cell(r(i)))).sortBy(_.mkString(""))
  }

  def ofDf(df: DataFrame): Seq[Seq[String]] =
    of(df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

  def ofInter(in: Inter): Seq[Seq[String]] =
    of(in.schema, in.rows.toSeq.map(_.toSeq))
}

/** (sipFilters, reverseSemijoins, mergedJoins, ridJoins): how many SJoin,
  * SJoinIdxR and SJoinIdxM steps and RID-keyed joins a query has.
  */
object StepCounts {
  /** The steps an executor ran. */
  def of(m: QueryMetrics): (Int, Int, Int, Int) =
    (m.sipFilters, m.reverseSemijoins, m.mergedJoins, m.ridJoins)

  /** Every step of a lowered plan, as the serial engine runs them all. */
  def of(low: Lowered): (Int, Int, Int, Int) = {
    val steps = low.joins.flatMap(_.steps)
    (steps.count(_.isInstanceOf[Direct]), steps.count(_.isInstanceOf[MapToF]),
      low.joins.count(_.kind.isInstanceOf[IdxMerge]), low.joins.map(_.keys.count(_.rewrite.isDefined)).sum)
  }
}
