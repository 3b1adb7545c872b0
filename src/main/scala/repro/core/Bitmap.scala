package repro.core

import java.nio.ByteBuffer
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, udf}
import org.roaringbitmap.RoaringBitmap
import org.roaringbitmap.buffer.ImmutableRoaringBitmap

/** Row/zone bitmask helpers for sideways information passing (§4).
  *
  * RIDs are dense non-negative integers, so — unlike the bloom filters used
  * by value-based sip — membership is exact: one bit per row of P (the *row
  * bitmask*) plus one bit per fixed-size block of rows (the *zone bitmask*,
  * derived from the row bitmask since zone = rid / zoneSize).
  */
object Bitmap {
  /** Paper example uses zones of 2; DuckDB rowgroups are ~120K. 1024 keeps
    * the zone accounting meaningful at our SF≈0.1 table sizes. Mutable so
    * unit tests can exercise zone skipping on tiny tables (serial test runs;
    * restore via [[withZoneSize]]).
    */
  var ZoneSize: Int = 1024

  /** Run `body` under a temporary zone size (tests only). */
  def withZoneSize[A](zs: Int)(body: => A): A = {
    val old = ZoneSize
    ZoneSize = zs
    try body finally ZoneSize = old
  }

  def serialize(bm: RoaringBitmap): Array[Byte] = {
    bm.runOptimize()
    val bytes = new Array[Byte](bm.serializedSizeInBytes())
    bm.serialize(ByteBuffer.wrap(bytes))
    bytes
  }

  def deserialize(bytes: Array[Byte]): ImmutableRoaringBitmap =
    new ImmutableRoaringBitmap(ByteBuffer.wrap(bytes))

  /** Collect the non-negative values of a (long) RID column into a bitmap.
    * This is the hash-join build phase reading the materialized RID column.
    */
  def fromColumn(df: DataFrame, colName: String): RoaringBitmap = {
    val spark = df.sparkSession
    import spark.implicits._
    val parts = df
      .select(col(colName).cast("long"))
      .na.drop()
      .as[Long]
      .mapPartitions { it =>
        val bm = new RoaringBitmap()
        it.foreach(addRid(bm, _, colName))
        Iterator(serialize(bm))
      }
      .collect()
    val merged = new RoaringBitmap()
    parts.foreach(b => merged.or(new RoaringBitmap().tap(_.deserialize(ByteBuffer.wrap(b)))))
    merged
  }

  /** Add RID `v` of column `colName` to a row bitmask. Negative values
    * (-1 marks a dangling FK) match no row and are skipped; a RID above
    * `Int.MaxValue` has no bit and fails.
    */
  def addRid(bm: RoaringBitmap, v: Long, colName: String): Unit =
    if (v > Int.MaxValue) throw new IllegalArgumentException(s"$colName: RID $v is above Int.MaxValue")
    else if (v >= 0) bm.add(v.toInt)

  private implicit class Tap[A](private val a: A) extends AnyVal {
    def tap(f: A => Unit): A = { f(a); a }
  }

  /** Zones (rid / ZoneSize) that contain at least one set bit. */
  def zones(bm: RoaringBitmap): RoaringBitmap = {
    val z = new RoaringBitmap()
    val it = bm.getIntIterator
    while (it.hasNext) z.add(it.next() / ZoneSize)
    z
  }

  /** Scanned tuples after zone skipping: surviving zones × zone size, capped
    * at the table size — the metric behind Table 4's "Scan Reduction" row.
    */
  def scannedAfterZoneSkip(bm: RoaringBitmap, tableRows: Long): Long =
    math.min(tableRows, zones(bm).getLongCardinality * ZoneSize.toLong)

  /** A serializable RID-membership predicate carrying the serialized bitmap
    * inline (deserialized lazily once per task thread). Zone check is
    * implicit: zone survival is a projection of the row bitmask, and the
    * scanned-tuple accounting uses [[scannedAfterZoneSkip]]. On a real
    * cluster the bytes would travel in a broadcast; in local mode shipping
    * them with the closure is equivalent and avoids UDF↔broadcast
    * serialization pitfalls.
    */
  final class RidPred(bytes: Array[Byte])
      extends org.apache.spark.sql.api.java.UDF1[java.lang.Long, java.lang.Boolean] {
    @transient private lazy val bm: ImmutableRoaringBitmap = deserialize(bytes)
    override def call(rid: java.lang.Long): java.lang.Boolean =
      rid != null && rid >= 0 && rid <= Int.MaxValue && bm.contains(rid.toInt)
  }

  /** Filter `df` to the rows whose `ridCol` is present in `bm` (ScanSJ). */
  def semiJoinFilter(df: DataFrame, ridCol: String, bm: RoaringBitmap): DataFrame =
    df.filter(semiJoinCol(df, ridCol, bm))

  def semiJoinCol(df: DataFrame, ridCol: String, bm: RoaringBitmap): Column =
    udf(new RidPred(serialize(bm)), org.apache.spark.sql.types.BooleanType)(col(ridCol))
}
