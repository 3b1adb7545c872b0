package repro.columnar

import repro.core._

/** A predicate compiled against one table into a filter on row ids. The
  * columns it reads are resolved to their typed arrays once.
  *
  * [[select]] is the scan form: it runs over a selection vector of row ids
  * and keeps the ones that pass (MonetDB/X100's selection vectors). Each
  * shape is a final class with its own loop, so the JIT inlines that
  * shape's test into it; a comparison's operator is switched on once per
  * call, outside the loop. [[apply]] tests one row, for GraphflowSim's test
  * after an EXTEND.
  *
  * Semantics, over the values `ColData.any` gives: numeric comparisons go
  * through `toDouble` (IEEE, so NaN fails every comparison but `<>`), a
  * null string never matches, in-lists compare exactly and only against
  * literals of the column's own type, and an incomparable column/literal
  * pair fails when a row is tested, not when it is compiled.
  * AND and OR test each child only on the rows the children before it left
  * undecided, as `forall` and `exists` do. A string test compares
  * dictionary codes: [[StringCol]]'s dictionary is sorted, so a comparison
  * is one code range, found by binary search when the filter is compiled.
  */
sealed abstract class Filter {
  /** Writes the entries of `in(0 until n)` that pass to the front of `out`,
    * in order, and returns how many. `out` may be `in`: no entry is written
    * past the position it was read from. */
  def select(in: Array[Int], n: Int, out: Array[Int]): Int

  /** Whether row `r` passes. */
  def apply(r: Int): Boolean
}

object Filter {
  /** The filter of `p` over the columns of `t`. */
  def apply(p: Pred, t: TableData): Filter = p match {
    case Cmp(c, op, l) => cmp(t.col(c), op, l)
    case InList(c, ls) => t.col(c) match {
      case LongCol(a)   => new LongIn(a, ls.collect { case LL(y) => y }.toArray)
      case DoubleCol(a) => new DoubleIn(a, ls.collect { case LD(y) => y }.toArray)
      case s: StringCol =>
        val hit = new RowMask(s.dict.length)
        ls.collect { case LS(y) => s.code(y) }.filter(_ >= 0).foreach(hit.set)
        new CodeIn(s.codes, hit)
    }
    case AndP(ps) => new AndF(ps.map(apply(_, t)).toArray)
    case OrP(ps)  => new OrF(ps.map(apply(_, t)).toArray)
  }

  private def cmp(col: ColData, op: Op, l: Lit): Filter = (col, l) match {
    case (LongCol(a), LL(y))   => new LongCmp(a, op, y.toDouble)
    case (LongCol(a), LD(y))   => new LongCmp(a, op, y)
    case (DoubleCol(a), LL(y)) => new DoubleCmp(a, op, y.toDouble)
    case (DoubleCol(a), LD(y)) => new DoubleCmp(a, op, y)
    case (s: StringCol, LS(y)) => codeCmp(s, op, y)
    case _                     => new Incomparable(col, l)
  }

  /** `x op y` on a string column as a test on its ascending codes: `lo` is
    * the first code whose value is at least `y`, `hi` the first above it. */
  private def codeCmp(s: StringCol, op: Op, y: String): Filter = {
    val n = s.dict.length
    val lo = s.lowerBound(y)
    val hi = if (lo < n && s.dict(lo) == y) lo + 1 else lo
    op match {
      case OpEq => new CodeRange(s.codes, lo, hi)
      case OpNe => new CodeNe(s.codes, if (hi > lo) lo else -1)
      case OpLt => new CodeRange(s.codes, 0, lo)
      case OpLe => new CodeRange(s.codes, 0, hi)
      case OpGt => new CodeRange(s.codes, hi, n)
      case OpGe => new CodeRange(s.codes, lo, n)
    }
  }
}

/** `a(r).toDouble op y`. */
final class LongCmp(a: Array[Long], op: Op, y: Double) extends Filter {
  def apply(r: Int): Boolean = {
    val x = a(r).toDouble
    op match {
      case OpEq => x == y
      case OpNe => x != y
      case OpLt => x < y
      case OpLe => x <= y
      case OpGt => x > y
      case OpGe => x >= y
    }
  }

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    op match {
      case OpEq => while (i < n) { val r = in(i); out(k) = r; if (a(r).toDouble == y) k += 1; i += 1 }
      case OpNe => while (i < n) { val r = in(i); out(k) = r; if (a(r).toDouble != y) k += 1; i += 1 }
      case OpLt => while (i < n) { val r = in(i); out(k) = r; if (a(r).toDouble < y) k += 1; i += 1 }
      case OpLe => while (i < n) { val r = in(i); out(k) = r; if (a(r).toDouble <= y) k += 1; i += 1 }
      case OpGt => while (i < n) { val r = in(i); out(k) = r; if (a(r).toDouble > y) k += 1; i += 1 }
      case OpGe => while (i < n) { val r = in(i); out(k) = r; if (a(r).toDouble >= y) k += 1; i += 1 }
    }
    k
  }
}

/** `a(r) op y`. */
final class DoubleCmp(a: Array[Double], op: Op, y: Double) extends Filter {
  def apply(r: Int): Boolean = {
    val x = a(r)
    op match {
      case OpEq => x == y
      case OpNe => x != y
      case OpLt => x < y
      case OpLe => x <= y
      case OpGt => x > y
      case OpGe => x >= y
    }
  }

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    op match {
      case OpEq => while (i < n) { val r = in(i); out(k) = r; if (a(r) == y) k += 1; i += 1 }
      case OpNe => while (i < n) { val r = in(i); out(k) = r; if (a(r) != y) k += 1; i += 1 }
      case OpLt => while (i < n) { val r = in(i); out(k) = r; if (a(r) < y) k += 1; i += 1 }
      case OpLe => while (i < n) { val r = in(i); out(k) = r; if (a(r) <= y) k += 1; i += 1 }
      case OpGt => while (i < n) { val r = in(i); out(k) = r; if (a(r) > y) k += 1; i += 1 }
      case OpGe => while (i < n) { val r = in(i); out(k) = r; if (a(r) >= y) k += 1; i += 1 }
    }
    k
  }
}

/** `a(r)` is one of `ys`. */
final class LongIn(a: Array[Long], ys: Array[Long]) extends Filter {
  def apply(r: Int): Boolean = { val x = a(r); var j = 0; while (j < ys.length && ys(j) != x) j += 1; j < ys.length }

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < n) { val r = in(i); out(k) = r; if (apply(r)) k += 1; i += 1 }
    k
  }
}

/** `a(r)` equals one of `ys` (so NaN is in no list). */
final class DoubleIn(a: Array[Double], ys: Array[Double]) extends Filter {
  def apply(r: Int): Boolean = { val x = a(r); var j = 0; while (j < ys.length && ys(j) != x) j += 1; j < ys.length }

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < n) { val r = in(i); out(k) = r; if (apply(r)) k += 1; i += 1 }
    k
  }
}

/** The row's dictionary code is set in `hit`, a membership table over the
  * dictionary's codes (a null's -1 never is). */
final class CodeIn(codes: Array[Int], hit: RowMask) extends Filter {
  def apply(r: Int): Boolean = hit.contains(codes(r))

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < n) { val r = in(i); out(k) = r; if (hit.contains(codes(r))) k += 1; i += 1 }
    k
  }
}

/** `lo <= codes(r) < hi`, with `0 <= lo`: one unsigned test, and a null's
  * -1 is outside every range. */
final class CodeRange(codes: Array[Int], lo: Int, hi: Int) extends Filter {
  private val width = hi - lo

  def apply(r: Int): Boolean = Integer.compareUnsigned(codes(r) - lo, width) < 0

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < n) { val r = in(i); out(k) = r; if (Integer.compareUnsigned(codes(r) - lo, width) < 0) k += 1; i += 1 }
    k
  }
}

/** A non-null code other than `c` (-1 when the literal is not in the
  * dictionary: then every non-null row passes). */
final class CodeNe(codes: Array[Int], c: Int) extends Filter {
  def apply(r: Int): Boolean = { val x = codes(r); x >= 0 && x != c }

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < n) { val r = in(i); out(k) = r; val x = codes(r); if (x >= 0 && x != c) k += 1; i += 1 }
    k
  }
}

/** A comparison of a column with a literal of another type: a null string
  * fails it, and any other row is an error. */
final class Incomparable(col: ColData, l: Lit) extends Filter {
  private val codes = col match { case s: StringCol => s.codes; case _ => null }

  def apply(r: Int): Boolean =
    if (codes != null && codes(r) < 0) false else sys.error(s"incomparable ${col.any(r)} vs $l")

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var i = 0
    while (i < n) { apply(in(i)); i += 1 }
    0
  }
}

/** Every child passes; each selects in place from the previous one's
  * survivors. With no children every row passes. */
final class AndF(fs: Array[Filter]) extends Filter {
  def apply(r: Int): Boolean = { var j = 0; while (j < fs.length && fs(j)(r)) j += 1; j == fs.length }

  def select(in: Array[Int], n: Int, out: Array[Int]): Int =
    if (fs.isEmpty) { if (in ne out) System.arraycopy(in, 0, out, 0, n); n }
    else {
      var k = fs(0).select(in, n, out)
      var j = 1
      while (j < fs.length && k > 0) { k = fs(j).select(out, k, out); j += 1 }
      k
    }
}

/** Some child passes; each is tested on a row only when no earlier child
  * passed it. With no children no row passes. */
final class OrF(fs: Array[Filter]) extends Filter {
  def apply(r: Int): Boolean = { var j = 0; while (j < fs.length && !fs(j)(r)) j += 1; j < fs.length }

  def select(in: Array[Int], n: Int, out: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < n) { val r = in(i); out(k) = r; if (apply(r)) k += 1; i += 1 }
    k
  }
}
