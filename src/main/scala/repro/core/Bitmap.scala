package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}

/** Row/zone bitmask helpers for sideways information passing (§4).
  *
  * RIDs are dense non-negative integers, so — unlike the bloom filters used
  * by value-based sip — membership is exact: one bit per row of P (the *row
  * bitmask*, a [[RowMask]]) plus one bit per fixed-size block of rows (the
  * *zone bitmask*, derived from the row bitmask since zone = rid /
  * [[RowMask.ZoneSize]]).
  */
object Bitmap {
  /** The row bitmask of a RID column's values, over the `numRows` rows of
    * the table the RIDs point into: each partition fills its own word array
    * and the collected arrays are ORed. This is the hash-join build phase
    * reading the materialized RID column; -1 (dangling) is skipped and any
    * other RID outside the table fails, naming the column.
    */
  def fromColumn(df: DataFrame, colName: String, numRows: Int): RowMask = {
    val spark = df.sparkSession
    import spark.implicits._
    val parts = df
      .select(col(colName).cast("long"))
      .na.drop()
      .as[Long]
      .mapPartitions { it =>
        val m = new RowMask(numRows)
        it.foreach(m.add(_, colName))
        Iterator(m.words)
      }
      .collect()
    val merged = new RowMask(numRows)
    parts.foreach(w => merged.orInPlace(new RowMask(numRows, w)))
    merged
  }

  /** A serializable RID-membership predicate carrying the mask's words
    * inline. Spark scans cannot skip zones, so a filtered scan's "scanned"
    * count is the row mask's cardinality, the rows that survive ScanSJ. On
    * a real cluster the words would travel in a broadcast; in local mode
    * shipping them with the closure is equivalent and avoids UDF↔broadcast
    * serialization pitfalls.
    */
  final class RidPred(numRows: Int, words: Array[Long])
      extends org.apache.spark.sql.api.java.UDF1[java.lang.Long, java.lang.Boolean] {
    override def call(rid: java.lang.Long): java.lang.Boolean =
      rid != null && rid >= 0 && rid < numRows && (words((rid >>> 6).toInt) & (1L << rid)) != 0
  }

  /** Filter `df` to the rows whose `ridCol` is set in `m` (ScanSJ). */
  def semiJoinFilter(df: DataFrame, ridCol: String, m: RowMask): DataFrame =
    df.filter(udf(new RidPred(m.numRows, m.words), org.apache.spark.sql.types.BooleanType)(col(ridCol)))
}
