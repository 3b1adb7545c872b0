package repro.columnar

import repro.core._
import scala.collection.mutable

/** A predicate compiled against one table into a test on row ids. The
  * columns it reads are resolved to their typed arrays once.
  *
  * Semantics are exactly those of [[Pred.eval]] over `ColData.any`: numeric
  * comparisons go through `toDouble` (IEEE, so NaN fails every comparison
  * but `<>`), a null string never matches, in-lists compare exactly and only
  * against literals of the column's own type, and an incomparable
  * column/literal pair fails when a row is tested, not when it is compiled.
  */
object CompiledPred {
  def apply(p: Pred, t: TableData): Int => Boolean = p match {
    case Cmp(c, op, l) => cmp(t.col(c), op, l)
    case InList(c, ls) => t.col(c) match {
      case LongCol(a) =>
        val ys = ls.collect { case LL(y) => y }.toArray
        r => { val x = a(r); var i = 0; while (i < ys.length && ys(i) != x) i += 1; i < ys.length }
      case DoubleCol(a) =>
        val ys = ls.collect { case LD(y) => y }.toArray
        r => { val x = a(r); var i = 0; while (i < ys.length && ys(i) != x) i += 1; i < ys.length }
      case StringCol(a) =>
        val ys = ls.collect { case LS(y) => y }.toSet
        r => { val x = a(r); x != null && ys(x) }
    }
    case AndP(ps) =>
      val fs = ps.map(apply(_, t)).toArray
      r => { var i = 0; while (i < fs.length && fs(i)(r)) i += 1; i == fs.length }
    case OrP(ps) =>
      val fs = ps.map(apply(_, t)).toArray
      r => { var i = 0; while (i < fs.length && !fs(i)(r)) i += 1; i < fs.length }
  }

  private def cmp(col: ColData, op: Op, l: Lit): Int => Boolean = (col, l) match {
    case (LongCol(a), LL(y))   => longVs(a, op, y.toDouble)
    case (LongCol(a), LD(y))   => longVs(a, op, y)
    case (DoubleCol(a), LL(y)) => doubleVs(a, op, y.toDouble)
    case (DoubleCol(a), LD(y)) => doubleVs(a, op, y)
    case (StringCol(a), LS(y)) =>
      val test = signTest(op)
      r => { val x = a(r); x != null && test(x.compareTo(y)) }
    case (StringCol(a), _)     => r => a(r) != null && incomparable(a(r), l)
    case _                     => r => incomparable(col.any(r), l)
  }

  private def incomparable(x: Any, l: Lit): Boolean = sys.error(s"incomparable $x vs $l")

  private def longVs(a: Array[Long], op: Op, y: Double): Int => Boolean = op match {
    case OpEq => r => a(r).toDouble == y
    case OpNe => r => a(r).toDouble != y
    case OpLt => r => a(r).toDouble < y
    case OpLe => r => a(r).toDouble <= y
    case OpGt => r => a(r).toDouble > y
    case OpGe => r => a(r).toDouble >= y
  }

  private def doubleVs(a: Array[Double], op: Op, y: Double): Int => Boolean = op match {
    case OpEq => r => a(r) == y
    case OpNe => r => a(r) != y
    case OpLt => r => a(r) < y
    case OpLe => r => a(r) <= y
    case OpGt => r => a(r) > y
    case OpGe => r => a(r) >= y
  }

  /** `op` applied to the sign of a `compareTo` result (total orders only). */
  private def signTest(op: Op): Int => Boolean = op match {
    case OpEq => _ == 0
    case OpNe => _ != 0
    case OpLt => _ < 0
    case OpLe => _ <= 0
    case OpGt => _ > 0
    case OpGe => _ >= 0
  }
}

/** The rows a scan keeps (ascending row ids), the rows it touched and the
  * zones it skipped.
  */
final class ScanOut(val rows: Array[Int], val scanned: Long, val zonesSkipped: Long)

/** The three ways the serial engine reads a base table. Each tests `pred`
  * on exactly the rows it counts as scanned.
  */
object Scan {
  val NoPred: Int => Boolean = _ => true

  /** Sequential scan of every row. */
  def all(numRows: Int, pred: Int => Boolean): ScanOut = {
    val out = new Array[Int](numRows)
    var k = 0
    var i = 0
    while (i < numRows) { if (pred(i)) { out(k) = i; k += 1 }; i += 1 }
    new ScanOut(trim(out, k), numRows.toLong, 0L)
  }

  /** The given rows only (primary-key point lookups). */
  def rows(ids: Array[Int], pred: Int => Boolean): ScanOut = {
    val out = new Array[Int](ids.length)
    var k = 0
    var i = 0
    while (i < ids.length) { if (pred(ids(i))) { out(k) = ids(i); k += 1 }; i += 1 }
    new ScanOut(trim(out, k), ids.length.toLong, 0L)
  }

  /** ScanSJ (§4): visit the set bits of the AND-ed row bitmask in RID order,
    * finding each with `numberOfTrailingZeros` on the mask's words, so a
    * zone with no set bit is never touched. Every set bit is a row, so the
    * rows scanned are the mask's cardinality. Zones are [[Bitmap.ZoneSize]]
    * rows.
    */
  def setBits(numRows: Int, mask: RowMask, pred: Int => Boolean): ScanOut = {
    require(mask.numRows == numRows, s"a mask over ${mask.numRows} rows cannot filter $numRows rows")
    val zs = Bitmap.ZoneSize
    val nZones = (numRows + zs - 1) / zs
    val scanned = mask.cardinality
    val out = new Array[Int](scanned)
    val words = mask.words
    var k = 0
    var touched = 0L
    var lastZone = -1
    var w = 0
    while (w < words.length) {
      var bits = words(w)
      while (bits != 0L) {
        val i = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        val z = i / zs
        if (z != lastZone) { touched += 1; lastZone = z }
        if (pred(i)) { out(k) = i; k += 1 }
        bits &= bits - 1
      }
      w += 1
    }
    new ScanOut(trim(out, k), scanned.toLong, nZones - touched)
  }

  private def trim(a: Array[Int], n: Int): Array[Int] =
    if (n == a.length) a else java.util.Arrays.copyOf(a, n)
}

/** A row-id intermediate result: for each alias, the base-table row ids of
  * its part of every tuple. Tuple `i` is position `i` of every array. Column
  * values stay in the base tables until an operator reads them.
  */
final class Rel(val aliases: Array[String], val tables: Array[TableData],
                val ids: Array[Array[Int]], val size: Int) {
  /** Column `c` of `alias`; `__rid` is the row id itself (position == RID). */
  def col(alias: String, c: String): ColRef = {
    val k = aliases.indexOf(alias)
    require(k >= 0, s"no alias $alias in ${aliases.mkString(",")}")
    val t = tables(k)
    if (c == "__rid") new ColRef(s"${t.name}.__rid", ids(k), null, t.numRows)
    else new ColRef(s"${t.name}.$c", ids(k), t.col(c), -1)
  }
}

object Rel {
  def leaf(alias: String, t: TableData, rows: Array[Int]): Rel =
    new Rel(Array(alias), Array(t), Array(rows), rows.length)

  /** The tuples `l(li(k)) ++ r(ri(k))` for every k. */
  def joined(l: Rel, li: Array[Int], r: Rel, ri: Array[Int]): Rel =
    new Rel(l.aliases ++ r.aliases, l.tables ++ r.tables,
      l.ids.map(gather(_, li)) ++ r.ids.map(gather(_, ri)), li.length)

  private def gather(ids: Array[Int], at: Array[Int]): Array[Int] = {
    val out = new Array[Int](at.length)
    var i = 0
    while (i < at.length) { out(i) = ids(at(i)); i += 1 }
    out
  }
}

/** One column of a [[Rel]], read through its row ids. A RID column
  * (`__rid` or a materialized `rid_<fk>`) also gives the row bitmask of its
  * values ([[mask]]), which sip, SJoinIdxR and SJoinIdxM start from.
  *
  * @param data     the base column, or null for `__rid`
  * @param ridBound the table's row count when this is `__rid` (its values
  *                 are dense in `[0, ridBound)`), else -1
  */
final class ColRef(val name: String, val ids: Array[Int], val data: ColData, val ridBound: Int) {
  private val longs: Array[Long] = data match { case LongCol(a) => a; case _ => null }
  def isLong: Boolean = data == null || longs != null
  def long(i: Int): Long = if (data == null) ids(i).toLong else longs(ids(i))
  def any(i: Int): Any = if (data == null) ids(i).toLong else data.any(ids(i))

  /** The row bitmask (§4) of this RID column's values over the `numRows`
    * rows of the table they point into. -1, the dangling-FK sentinel,
    * matches no row and is skipped; any other value outside the table
    * fails, naming this column.
    */
  def mask(numRows: Int): RowMask = {
    val m = new RowMask(numRows)
    var i = 0
    while (i < ids.length) { m.add(long(i), name); i += 1 }
    m
  }
}

/** Build side of a hash join on a long key: the build rows of each key,
  * chained in build order. A `__rid` key is dense, so when the build side
  * is a sizable share of its table it indexes a table-sized array directly;
  * a smaller build, and any other key, goes through an open-addressing
  * table sized to the build side.
  */
final class LongMultiMap(key: ColRef, n: Int) {
  val dense: Boolean = key.ridBound >= 0 && n.toLong * LongMultiMap.DenseShare >= key.ridBound
  private val cap =
    if (dense) key.ridBound else Integer.highestOneBit(math.max(2 * n, 2) - 1) << 1
  private val shift = 64 - Integer.numberOfTrailingZeros(cap)
  private val heads = { val a = new Array[Int](cap); java.util.Arrays.fill(a, -1); a }
  private val keys = if (dense) null else new Array[Long](cap)
  private val nexts = new Array[Int](n)

  // Inserting backwards leaves every chain in ascending build order.
  locally {
    var i = n - 1
    while (i >= 0) {
      val k = key.long(i)
      val s = if (dense) k.toInt else slot(k)
      if (!dense) keys(s) = k
      nexts(i) = heads(s)
      heads(s) = i
      i -= 1
    }
  }

  private def slot(k: Long): Int = {
    var s = ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt
    while (heads(s) >= 0 && keys(s) != k) s = (s + 1) & (cap - 1)
    s
  }

  /** The first build row holding `k`, or -1. */
  def first(k: Long): Int =
    if (dense) { if (k >= 0 && k < cap) heads(k.toInt) else -1 }
    else heads(slot(k))

  /** The build row after `i` with the same key, or -1. */
  def next(i: Int): Int = nexts(i)
}

object LongMultiMap {
  /** A `__rid` build takes the direct-address path when it holds at least
    * 1/DenseShare of its table's rows: filling a table-sized array then
    * costs no more than a few hash slots per build row. */
  val DenseShare = 8
}

object Join {
  /** Hash join: the (build, probe) index pairs whose keys are equal, in
    * probe order and then build order. Keys are compared as [[Pred.eval]]
    * compares boxed values; long first keys are hashed unboxed.
    */
  def hash(bKeys: Seq[ColRef], bn: Int, pKeys: Seq[ColRef], pn: Int): (Array[Int], Array[Int]) = {
    val (bk, pk) = (bKeys.head, pKeys.head)
    val rest = bKeys.tail.zip(pKeys.tail).map { case (b, p) => eq(b, p) }.toArray
    val li = new mutable.ArrayBuilder.ofInt
    val ri = new mutable.ArrayBuilder.ofInt
    def emit(l: Int, r: Int): Unit = {
      var k = 0
      while (k < rest.length && rest(k)(l, r)) k += 1
      if (k == rest.length) { li += l; ri += r }
    }
    if (bk.isLong && pk.isLong) {
      val ht = new LongMultiMap(bk, bn)
      var r = 0
      while (r < pn) {
        var l = ht.first(pk.long(r))
        while (l >= 0) { emit(l, r); l = ht.next(l) }
        r += 1
      }
    } else {
      val ht = mutable.HashMap[Any, mutable.ArrayBuffer[Int]]()
      (0 until bn).foreach(l => ht.getOrElseUpdate(bk.any(l), mutable.ArrayBuffer[Int]()) += l)
      (0 until pn).foreach(r => ht.get(pk.any(r)).foreach(_.foreach(emit(_, r))))
    }
    (li.result(), ri.result())
  }

  /** Row-pair equality of two columns, with boxed-value semantics. */
  def eq(a: ColRef, b: ColRef): (Int, Int) => Boolean =
    if (a.isLong && b.isLong) (i, j) => a.long(i) == b.long(j)
    else (i, j) => a.any(i) == b.any(j)

  /** Every (l, r) pair, l-major. */
  def cross(ln: Int, rn: Int): (Array[Int], Array[Int]) = {
    val n = math.multiplyExact(ln, rn)
    val li = new Array[Int](n)
    val ri = new Array[Int](n)
    var k = 0
    var l = 0
    while (l < ln) {
      var r = 0
      while (r < rn) { li(k) = l; ri(k) = r; k += 1; r += 1 }
      l += 1
    }
    (li, ri)
  }
}
