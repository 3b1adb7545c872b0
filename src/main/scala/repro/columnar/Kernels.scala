package repro.columnar

import repro.core._
import scala.collection.mutable

/** The rows a scan keeps (ascending row ids), the rows it touched and the
  * zones it skipped.
  */
final class ScanOut(val rows: Array[Int], val scanned: Long, val zonesSkipped: Long)

/** The three ways the serial engine reads a base table. Each runs the
  * filter's [[Filter.select]] once, over its own vector of candidate rows,
  * so the filter is tested on exactly the rows the scan counts as scanned.
  */
object Scan {
  /** Every row passes. */
  val NoPred: Filter = new AndF(Array.empty)

  /** Sequential scan of every row: the candidates are the identity vector. */
  def all(numRows: Int, f: Filter): ScanOut = {
    val out = Array.range(0, numRows)
    new ScanOut(trim(out, f.select(out, numRows, out)), numRows.toLong, 0L)
  }

  /** The given rows only (primary-key point lookups). */
  def rows(ids: Array[Int], f: Filter): ScanOut = {
    val out = new Array[Int](ids.length)
    new ScanOut(trim(out, f.select(ids, ids.length, out)), ids.length.toLong, 0L)
  }

  /** ScanSJ (§4): the set bits of the AND-ed row bitmask, in RID order,
    * then filtered. A zone with no set bit is never touched; every set bit
    * is a row, so the rows scanned are the mask's cardinality.
    */
  def setBits(numRows: Int, mask: RowMask, f: Filter): ScanOut = {
    require(mask.numRows == numRows, s"a mask over ${mask.numRows} rows cannot filter $numRows rows")
    val out = mask.toArray
    new ScanOut(trim(out, f.select(out, out.length, out)), out.length.toLong,
      RowMask.zonesOf(numRows) - mask.zonesTouched)
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
    new ColRef(s"${t.name}.$c", ids(k), if (c == "__rid") null else t.col(c))
  }
}

object Rel {
  def leaf(alias: String, t: TableData, rows: Array[Int]): Rel =
    new Rel(Array(alias), Array(t), Array(rows), rows.length)

  /** The tuples `l(li(k)) ++ r(ri(k))` for every k. */
  def joined(l: Rel, li: Array[Int], r: Rel, ri: Array[Int]): Rel =
    new Rel(l.aliases ++ r.aliases, l.tables ++ r.tables,
      l.ids.map(gather(_, li)) ++ r.ids.map(gather(_, ri)), li.length)

  /** The tuples `l(li(k))` extended by row `rows(k)` of `t` as `alias`. */
  def extended(l: Rel, li: Array[Int], alias: String, t: TableData, rows: Array[Int]): Rel =
    new Rel(l.aliases :+ alias, l.tables :+ t, l.ids.map(gather(_, li)) :+ rows, li.length)

  /** The output columns `out` of every tuple, boxed into result rows. */
  def project(rel: Rel, out: Seq[OutCol]): Inter = {
    val cols = out.map(oc => rel.col(oc.alias, oc.col)).toArray
    val rows = new mutable.ArrayBuffer[Array[Any]](rel.size)
    var i = 0
    while (i < rel.size) {
      val row = new Array[Any](cols.length)
      var c = 0
      while (c < cols.length) { row(c) = cols(c).any(i); c += 1 }
      rows += row
      i += 1
    }
    new Inter(out.map(_.name).toIndexedSeq, rows)
  }

  /** `ids(at(k))` for every k. */
  private[columnar] def gather(ids: Array[Int], at: Array[Int]): Array[Int] = {
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
  * @param data the base column, or null for `__rid`
  */
final class ColRef(val name: String, val ids: Array[Int], val data: ColData) {
  /** The base long values, or null for `__rid` and non-long columns. */
  val longs: Array[Long] = data match { case LongCol(a) => a; case _ => null }
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
  * chained in build order. When the keys' range `[min, max]` fits in
  * `maxSlots` slots, `heads` is indexed by `key - min`, so a probe is one
  * unsigned range test and one load, as in a perfect hash table; a wider
  * range (or one whose span overflows a long) goes through an
  * open-addressing table sized to the build side. The same rule serves RID
  * and value keys.
  */
final class LongMultiMap private[columnar] (key: ColRef, n: Int, maxSlots: Long) {
  /** `n` build rows of `key` for a join that will probe about `probes`
    * keys: range addressing when the range needs at most
    * [[LongMultiMap.DenseShare]] slots per build or probe row. */
  def this(key: ColRef, n: Int, probes: Int) =
    this(key, n, LongMultiMap.DenseShare * (n.toLong + probes))

  private val (lo, hi) = {
    var (min, max) = (Long.MaxValue, Long.MinValue)
    var i = 0
    while (i < n) { val k = key.long(i); if (k < min) min = k; if (k > max) max = k; i += 1 }
    (min, max)
  }
  /** True when `heads` is indexed by `key - min`. An empty build is, with no
    * slots. `hi - lo` is negative when the span overflows. */
  val dense: Boolean = n == 0 || hi - lo >= 0 && hi - lo < math.min(maxSlots, LongMultiMap.MaxSlots)
  private val cap = if (dense) (hi - lo + 1).toInt else Integer.highestOneBit(math.max(2 * n, 2) - 1) << 1
  private val shift = 64 - Integer.numberOfTrailingZeros(cap)
  private val heads = { val a = new Array[Int](cap); java.util.Arrays.fill(a, -1); a }
  private val keys = if (dense) null else new Array[Long](cap)
  private val nexts = new Array[Int](n)

  // Inserting backwards leaves every chain in ascending build order.
  locally {
    var i = n - 1
    while (i >= 0) {
      val k = key.long(i)
      val s = if (dense) (k - lo).toInt else slot(k)
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
    if (dense) { val d = k - lo; if (java.lang.Long.compareUnsigned(d, cap) < 0) heads(d.toInt) else -1 }
    else heads(slot(k))

  /** The build row after `i` with the same key, or -1. */
  def next(i: Int): Int = nexts(i)

  /** Every build row holding `k`, ascending. */
  def rowsOf(k: Long): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var i = first(k)
    while (i >= 0) { out += i; i = nexts(i) }
    out.result()
  }

  /** The (build, probe) row pairs with equal keys over the first `pn` rows
    * of `probe`, in probe order and then build order. */
  def pairs(probe: ColRef, pn: Int): (Array[Int], Array[Int]) = {
    val li = new mutable.ArrayBuilder.ofInt
    val ri = new mutable.ArrayBuilder.ofInt
    val (ids, vals) = (probe.ids, probe.longs)
    var r = 0
    while (r < pn) {
      var l = first(if (vals == null) ids(r).toLong else vals(ids(r)))
      while (l >= 0) { li += l; ri += r; l = nexts(l) }
      r += 1
    }
    (li.result(), ri.result())
  }
}

object LongMultiMap {
  /** Range addressing is taken while the key span needs at most this many
    * `heads` slots per build or probe row: filling them then costs about
    * what hashing the build rows would, and every probe is a direct load. */
  val DenseShare = 8
  /** The largest `heads` array range addressing allocates. */
  private val MaxSlots = Int.MaxValue - 8
}

object Join {
  /** Hash join: the (build, probe) index pairs whose keys are equal, in
    * probe order and then build order. The first keys go through a
    * [[LongMultiMap]] sized for `pn` probes, and any further keys filter its
    * pairs. Every key is a long column; any other fails, naming it.
    */
  def hash(bKeys: Seq[ColRef], bn: Int, pKeys: Seq[ColRef], pn: Int): (Array[Int], Array[Int]) = {
    val (li, ri) = new LongMultiMap(longKey(bKeys.head), bn, pn).pairs(longKey(pKeys.head), pn)
    where(li, ri, bKeys.tail.zip(pKeys.tail).map { case (b, p) => eq(b, p) })
  }

  /** The pairs `(li(k), ri(k))` that satisfy every condition in `conds`, in
    * order: the residual filter of every serial join. With no condition the
    * inputs are returned as they are. */
  def where(li: Array[Int], ri: Array[Int], conds: Seq[(Int, Int) => Boolean]): (Array[Int], Array[Int]) =
    if (conds.isEmpty) (li, ri)
    else {
      val cs = conds.toArray
      val (lo, ro) = (new Array[Int](li.length), new Array[Int](ri.length))
      var n = 0
      var k = 0
      while (k < li.length) {
        var c = 0
        while (c < cs.length && cs(c)(li(k), ri(k))) c += 1
        if (c == cs.length) { lo(n) = li(k); ro(n) = ri(k); n += 1 }
        k += 1
      }
      (java.util.Arrays.copyOf(lo, n), java.util.Arrays.copyOf(ro, n))
    }

  /** Row-pair equality of two long columns; any other column fails,
    * naming it. */
  def eq(a: ColRef, b: ColRef): (Int, Int) => Boolean = {
    longKey(a); longKey(b)
    (i, j) => a.long(i) == b.long(j)
  }

  private def longKey(c: ColRef): ColRef = {
    require(c.isLong, s"${c.name}: join keys must be long columns")
    c
  }

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
