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

  /** Sequential scan of every row of `t`: the candidates are its identity
    * vector. With no predicate the scan keeps that shared vector itself, so
    * an unfiltered scan allocates nothing. */
  def all(t: TableData, f: Filter): ScanOut =
    if (f eq NoPred) new ScanOut(t.allRows, t.numRows.toLong, 0L)
    else {
      val out = new Array[Int](t.numRows)
      new ScanOut(trim(out, f.select(t.allRows, t.numRows, out)), t.numRows.toLong, 0L)
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
  *
  * Row-id vectors are read-only: an unfiltered scan's vector is its table's
  * shared identity vector, and a vector may be held by several results, so
  * every operator writes its output to a fresh array.
  */
final class Rel(val aliases: Array[String], val tables: Array[TableData],
                val ids: Array[Array[Int]], val size: Int) {
  /** Column `c` of `alias`; `__rid` is the row id itself (position == RID). */
  def col(alias: String, c: String): ColRef = {
    val k = aliases.indexOf(alias)
    require(k >= 0, s"no alias $alias in ${aliases.mkString(",")}")
    val t = tables(k)
    new ColRef(s"${t.name}.$c", ids(k), if (c == "__rid") null else t.col(c), t.numRows)
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
  * @param data the base column, or null when the ids are the values
  *             (`__rid`, or the P2 RIDs an SJoinIdxM walk reads)
  * @param rows the number of rows of the table the ids address
  */
final class ColRef(val name: String, val ids: Array[Int], val data: ColData, rows: Int) {
  /** The base long values, or null for `__rid` and non-long columns. */
  val longs: Array[Long] = data match { case LongCol(a) => a; case _ => null }
  def isLong: Boolean = data == null || longs != null
  def long(i: Int): Long = if (data == null) ids(i).toLong else longs(ids(i))
  def any(i: Int): Any = if (data == null) ids(i).toLong else data.any(ids(i))

  /** The domain `[lo, hi]` of the values this column can give (empty when
    * `lo > hi`): a long column's min and max, `[0, rows)` for row ids, and
    * every long for any other column. A hash join's build covers it. */
  val lo: Long = data match { case null => 0L; case c: LongCol => c.min; case _ => Long.MinValue }
  val hi: Long = data match { case null => rows - 1L; case c: LongCol => c.max; case _ => Long.MaxValue }

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
  * chained in build order. It is addressed in one of three ways
  * ([[LongMultiMap.Addressing]]), chosen when it is built:
  *   - `Covered`: `heads` spans the build keys and the whole domain of the
  *     probe column ([[ColRef.lo]], [[ColRef.hi]]), so a probe is one load
  *     at `key - lo`, with no range test;
  *   - `Ranged`: `heads` spans the build keys' `[min, max]`, and a probe is
  *     one unsigned range test and one load;
  *   - `Hashed`: an open-addressing table sized to the build side.
  * The first that fits in `maxSlots` slots is taken; a span that overflows
  * a long never fits. Each mode probes in its own loop, so the JIT compiles
  * and profiles each on its own. The same rule serves RID and value keys.
  */
final class LongMultiMap private[columnar] (key: ColRef, n: Int, probeLo: Long, probeHi: Long, maxSlots: Long) {
  import LongMultiMap._

  /** The build side of a join that probes it with the first `probes` rows
    * of `probe`: covered or range-addressed when the span needs at most
    * [[LongMultiMap.DenseShare]] slots per build or probe row. */
  def this(key: ColRef, n: Int, probe: ColRef, probes: Int) =
    this(key, n, probe.lo, probe.hi, LongMultiMap.DenseShare * (n.toLong + probes))

  /** An index over `n` rows of `key`, for about `probes` probes whose keys
    * are not known when it is built: range-addressed or hashed. */
  def this(key: ColRef, n: Int, probes: Int) =
    this(key, n, Long.MinValue, Long.MaxValue, LongMultiMap.DenseShare * (n.toLong + probes))

  private val (bLo, bHi) = {
    var (min, max) = (Long.MaxValue, Long.MinValue)
    var i = 0
    while (i < n) { val k = key.long(i); if (k < min) min = k; if (k > max) max = k; i += 1 }
    (min, max)
  }
  private val (uLo, uHi) = (math.min(bLo, probeLo), math.max(bHi, probeHi))
  /** Whether `[a, b]` fits in the slots; `b - a` is negative when the span
    * overflows. */
  private def fits(a: Long, b: Long): Boolean = b - a >= 0 && b - a < math.min(maxSlots, MaxSlots)
  /** An empty build is range-addressed, with no slots. */
  val addressing: Addressing =
    if (n > 0 && fits(uLo, uHi)) Covered else if (n == 0 || fits(bLo, bHi)) Ranged else Hashed
  private val (lo, cap) = addressing match {
    case Covered => (uLo, (uHi - uLo + 1).toInt)
    case Ranged  => (bLo, if (n == 0) 0 else (bHi - bLo + 1).toInt)
    case Hashed  => (bLo, Integer.highestOneBit(math.max(2 * n, 2) - 1) << 1)
  }
  private val shift = 64 - Integer.numberOfTrailingZeros(cap)
  private val heads = { val a = new Array[Int](cap); java.util.Arrays.fill(a, -1); a }
  private val keys = if (addressing == Hashed) new Array[Long](cap) else null
  private val nexts = new Array[Int](n)

  // Inserting backwards leaves every chain in ascending build order.
  locally {
    var i = n - 1
    while (i >= 0) {
      val k = key.long(i)
      val s = if (keys == null) (k - lo).toInt else slot(k)
      if (keys != null) keys(s) = k
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

  /** The first build row holding `k`, or -1. Any key may be asked. */
  def first(k: Long): Int =
    if (keys != null) heads(slot(k))
    else { val d = k - lo; if (java.lang.Long.compareUnsigned(d, cap) < 0) heads(d.toInt) else -1 }

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
    * of `probe`, in probe order and then build order. An empty build reads
    * no probe key. A covered map probes without a range test only when
    * `probe`'s domain lies inside its slots; any other probe is
    * range-tested. */
  def pairs(probe: ColRef, pn: Int): (Array[Int], Array[Int]) =
    if (n == 0) (Array.emptyIntArray, Array.emptyIntArray)
    else addressing match {
      case Hashed => hashedPairs(probe.ids, probe.longs, pn)
      case Covered if lo <= probe.lo && java.lang.Long.compareUnsigned(probe.hi - lo, cap) < 0 =>
        coveredPairs(probe.ids, probe.longs, pn)
      case _ => rangedPairs(probe.ids, probe.longs, pn)
    }

  // One loop per addressing mode. `vals` is null when the ids are the keys.
  // A covered probe key outside the slots (a column changed after its
  // domain was taken) fails on `toIntExact` or the array bound instead of
  // reading another key's chain.

  /** Covered probes run in batches of [[LongMultiMap.Batch]] rows: a
    * branch-free pass keeps the rows whose slot starts a chain (most probes
    * miss), and only those rows then walk their chains. */
  private def coveredPairs(ids: Array[Int], vals: Array[Long], pn: Int): (Array[Int], Array[Int]) = {
    val heads = this.heads; val nexts = this.nexts; val lo = this.lo
    val out = new PairBuf
    val hits = new Array[Int](math.min(pn, Batch))
    var from = 0
    while (from < pn) {
      val end = math.min(from + Batch, pn)
      var m = 0
      var r = from
      if (vals == null) while (r < end) { hits(m) = r; m += ~heads(Math.toIntExact(ids(r) - lo)) >>> 31; r += 1 }
      else while (r < end) { hits(m) = r; m += ~heads(Math.toIntExact(vals(ids(r)) - lo)) >>> 31; r += 1 }
      var i = 0
      while (i < m) {
        val r = hits(i)
        var l = heads(((if (vals == null) ids(r).toLong else vals(ids(r))) - lo).toInt)
        while (l >= 0) { out.add(l, r); l = nexts(l) }
        i += 1
      }
      from = end
    }
    out.result
  }

  private def rangedPairs(ids: Array[Int], vals: Array[Long], pn: Int): (Array[Int], Array[Int]) = {
    val heads = this.heads; val nexts = this.nexts; val lo = this.lo; val cap = this.cap
    val out = new PairBuf
    var r = 0
    while (r < pn) {
      val d = (if (vals == null) ids(r).toLong else vals(ids(r))) - lo
      if (java.lang.Long.compareUnsigned(d, cap) < 0) {
        var l = heads(d.toInt)
        while (l >= 0) { out.add(l, r); l = nexts(l) }
      }
      r += 1
    }
    out.result
  }

  private def hashedPairs(ids: Array[Int], vals: Array[Long], pn: Int): (Array[Int], Array[Int]) = {
    val heads = this.heads; val nexts = this.nexts; val keys = this.keys
    val shift = this.shift; val mask = cap - 1
    val out = new PairBuf
    var r = 0
    while (r < pn) {
      val k = if (vals == null) ids(r).toLong else vals(ids(r))
      var s = ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt
      while (heads(s) >= 0 && keys(s) != k) s = (s + 1) & mask
      var l = heads(s)
      while (l >= 0) { out.add(l, r); l = nexts(l) }
      r += 1
    }
    out.result
  }
}

object LongMultiMap {
  /** How a map's `heads` is addressed; see [[LongMultiMap]]. */
  sealed trait Addressing
  case object Covered extends Addressing
  case object Ranged extends Addressing
  case object Hashed extends Addressing

  /** Covered or range addressing is taken while the key span needs at most
    * this many `heads` slots per build or probe row: filling them then
    * costs about what hashing the build rows would, and every probe is a
    * direct load. */
  val DenseShare = 8
  /** The probe rows a covered probe tests before it walks their chains. */
  private val Batch = 1024
  /** The largest `heads` array covered or range addressing allocates. */
  private val MaxSlots = Int.MaxValue - 8
}

/** The (build, probe) pairs a probe loop emits, in two growable int arrays. */
private final class PairBuf {
  private var li = new Array[Int](16)
  private var ri = new Array[Int](16)
  private var n = 0

  def add(l: Int, r: Int): Unit = {
    if (n == li.length) { li = java.util.Arrays.copyOf(li, 2 * n); ri = java.util.Arrays.copyOf(ri, 2 * n) }
    li(n) = l; ri(n) = r; n += 1
  }

  def result: (Array[Int], Array[Int]) = (java.util.Arrays.copyOf(li, n), java.util.Arrays.copyOf(ri, n))
}

object Join {
  /** Hash join: the (build, probe) index pairs whose keys are equal, in
    * probe order and then build order. The first keys go through a
    * [[LongMultiMap]] built for `pn` probes over the first probe key's
    * domain, and any further keys filter its pairs. Every key is a long
    * column; any other fails, naming it.
    */
  def hash(bKeys: Seq[ColRef], bn: Int, pKeys: Seq[ColRef], pn: Int): (Array[Int], Array[Int]) = {
    val (li, ri) = new LongMultiMap(longKey(bKeys.head), bn, longKey(pKeys.head), pn).pairs(pKeys.head, pn)
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
