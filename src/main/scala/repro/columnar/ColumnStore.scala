package repro.columnar

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.core.{CodePointOrder, GrainCatalog}
import scala.collection.mutable

/** A column of an in-memory table. Three runtime types mirror [[repro.core.Lit]]. */
sealed trait ColData {
  def size: Int
  def any(i: Int): Any
}
final case class LongCol(a: Array[Long]) extends ColData {
  def size: Int = a.length; def any(i: Int): Any = a(i)

  /** The smallest and largest value, found once when the column is made
    * (`Long.MaxValue` and `Long.MinValue` when it is empty): the domain a
    * hash join's build covers when it probes this column. */
  val (min, max): (Long, Long) = {
    var (lo, hi) = (Long.MaxValue, Long.MinValue)
    var i = 0
    while (i < a.length) { val x = a(i); if (x < lo) lo = x; if (x > hi) hi = x; i += 1 }
    (lo, hi)
  }
}
final case class DoubleCol(a: Array[Double]) extends ColData {
  def size: Int = a.length; def any(i: Int): Any = a(i)
}
/** A string column with its dictionary: `a(i) == dict(codes(i))`, and code
  * -1 marks a null. The dictionary is sorted by [[CodePointOrder]], so codes
  * keep the values' order (an order-preserving dictionary): a comparison
  * with a literal is a code range, and MIN/MAX reduce over codes.
  */
final case class StringCol(a: Array[String], codes: Array[Int], dict: Array[String]) extends ColData {
  def size: Int = a.length; def any(i: Int): Any = a(i)

  /** The first code whose value is at least `y` (`dict.length` if none). */
  def lowerBound(y: String): Int = {
    val i = java.util.Arrays.binarySearch(dict, y, CodePointOrder)
    if (i >= 0) i else -i - 1
  }

  /** The code of `y`, or -1 when no row holds it. */
  def code(y: String): Int = { val i = lowerBound(y); if (i < dict.length && dict(i) == y) i else -1 }
}
object StringCol {
  /** `a` with its sorted dictionary: codes are numbered in order of first
    * appearance in one hashing pass, then renumbered by rank. */
  def apply(a: Array[String]): StringCol = {
    val ids = new java.util.HashMap[String, Integer]
    val seen = mutable.ArrayBuffer[String]()
    val codes = new Array[Int](a.length)
    var i = 0
    while (i < a.length) {
      codes(i) = a(i) match {
        case null => -1
        case s =>
          val c = ids.get(s)
          if (c != null) c.intValue else { ids.put(s, seen.length); seen += s; seen.length - 1 }
      }
      i += 1
    }
    val dict = seen.toArray
    java.util.Arrays.sort(dict, CodePointOrder)
    val rank = new Array[Int](dict.length)
    i = 0
    while (i < dict.length) { rank(ids.get(dict(i)).intValue) = i; i += 1 }
    i = 0
    while (i < codes.length) { if (codes(i) >= 0) codes(i) = rank(codes(i)); i += 1 }
    StringCol(a, codes, dict)
  }
}

/** One in-memory columnar table: the serial engine's storage, loaded once
  * from the RID-extended Spark DataFrame in `__rid` order so that array
  * position == RID (RIDs are virtual positional offsets, §3).
  */
final class TableData(val name: String, val colNames: IndexedSeq[String],
                      val cols: IndexedSeq[ColData], val numRows: Int) {
  private val byName = colNames.zipWithIndex.toMap
  def col(c: String): ColData = cols(byName.getOrElse(c, sys.error(s"$name: no column $c")))

  /** Column `c` over every row, in row order. */
  def ref(c: String): ColRef = new ColRef(s"$name.$c", allRows, col(c), numRows)

  /** The identity vector `0 until numRows`, shared by every unfiltered scan
    * of this table and by [[ref]]; like every row-id vector, read-only. */
  private[columnar] lazy val allRows = Array.range(0, numRows)

  /** Long column `c`'s value -> row ids index, built once: GraphflowSim's
    * adjacency-list-index analogue and the serial engine's primary-key
    * point lookups. */
  private val valueIdx = mutable.HashMap[String, LongMultiMap]()
  def index(c: String): LongMultiMap =
    valueIdx.getOrElseUpdate(c, {
      require(col(c).isInstanceOf[LongCol], s"$name.$c: value index needs a long column")
      new LongMultiMap(ref(c), numRows, numRows)
    })
}

/** The serial engine's database: tables loaded from (extended) DataFrames. */
final class ColumnStore {
  val tables: mutable.LinkedHashMap[String, TableData] = mutable.LinkedHashMap()

  def apply(name: String): TableData = tables(name)

  /** Load a DataFrame with one `collect`, placing each row at its `__rid`
    * when the column is present, so array index == RID. Dates and any
    * unrecognised types are stored as strings.
    */
  def load(name: String, df: DataFrame): TableData = {
    val fields = df.schema.fields
    val rows = fields.indexWhere(_.name == "__rid") match {
      case -1 => df.collect()
      case ri => inRidOrder(name, df.collect(), ri)
    }
    val n = rows.length
    val cols: IndexedSeq[ColData] = fields.zipWithIndex.map { case (f, ci) =>
      f.dataType match {
        case LongType | IntegerType | ShortType | ByteType =>
          val a = new Array[Long](n)
          var i = 0
          while (i < n) {
            val v = rows(i).get(ci)
            a(i) = if (v == null) -1L else v.asInstanceOf[Number].longValue
            i += 1
          }
          LongCol(a)
        case DoubleType | FloatType | _: DecimalType =>
          val a = new Array[Double](n)
          var i = 0
          while (i < n) {
            val v = rows(i).get(ci)
            a(i) = if (v == null) Double.NaN else v.asInstanceOf[Number].doubleValue()
            i += 1
          }
          DoubleCol(a)
        case _ =>
          val a = new Array[String](n)
          var i = 0
          while (i < n) { val v = rows(i).get(ci); if (v != null) a(i) = v.toString; i += 1 }
          StringCol(a)
      }
    }.toIndexedSeq
    val t = new TableData(name, fields.map(_.name).toIndexedSeq, cols, n)
    tables(name) = t
    t
  }

  /** `rows` permuted so that row r is the one whose `__rid` is r; RIDs
    * outside 0 until n, or repeated, fail. */
  private def inRidOrder(name: String, rows: Array[Row], ridIdx: Int): Array[Row] = {
    val out = new Array[Row](rows.length)
    rows.foreach { r =>
      val rid = r.getLong(ridIdx)
      require(rid >= 0 && rid < out.length && out(rid.toInt) == null,
        s"$name: __rid $rid is out of range or repeated (${out.length} rows)")
      out(rid.toInt) = r
    }
    out
  }
}

object ColumnStore {
  /** Every extended table of a frozen catalog, loaded. */
  def of(cat: GrainCatalog): ColumnStore = {
    val st = new ColumnStore
    cat.tableNames.foreach(n => st.load(n, cat.ext(n)))
    st
  }
}
