package repro

import org.apache.spark.sql.DataFrame
import repro.columnar.Inter
import repro.core._

/** Cross-engine results in [[Oracle.canon]]'s form, so engines may emit
  * columns and rows in any order.
  */
object Canon {
  def ofDf(df: DataFrame): Seq[Seq[String]] =
    Oracle.canon(df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

  def ofInter(in: Inter): Seq[Seq[String]] =
    Oracle.canon(in.schema, in.rows.toSeq.map(_.toSeq))
}

/** (sipFilters, reverseSemijoins, mergedJoins, ridJoins): how many SJoin,
  * SJoinIdxR and SJoinIdxM steps and RID-keyed joins a plan has. An
  * executor runs every step of the plan it keeps (`exec.plan(q)`).
  */
object StepCounts {
  def of(low: Lowered): (Int, Int, Int, Int) = {
    val steps = low.joins.flatMap(_.steps)
    (steps.count(_.isInstanceOf[Direct]), steps.count(_.isInstanceOf[MapToF]),
      low.joins.count(_.kind.isInstanceOf[IdxMerge]), low.joins.map(_.keys.count(_.rewrite.isDefined)).sum)
  }
}

/** Views of the engine's structures that only the suites read. */
object Inspect {
  /** The zone bitmask (§4): one bit per [[RowMask.ZoneSize]]-row zone of the
    * table, set when the zone holds at least one set row. */
  def zones(m: RowMask): RowMask = {
    val zs = RowMask.ZoneSize
    val z = new RowMask(RowMask.zonesOf(m.numRows))
    m.toArray.foreach(i => z.set(i / zs))
    z
  }

  /** A copy of the F-RIDs joining with `key`. */
  def neighbors(idx: RidIndexCsr, key: Int): Array[Int] =
    java.util.Arrays.copyOfRange(idx.fRids, idx.offsets(key), idx.offsets(key + 1))

  /** How many F rows point at `key`. */
  def degree(idx: RidIndexCsr, key: Int): Int = idx.offsets(key + 1) - idx.offsets(key)
}
