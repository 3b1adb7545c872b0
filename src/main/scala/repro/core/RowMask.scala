package repro.core

/** A dense row bitmask (§4): one bit per row of the table it filters, packed
  * into 64-bit words. Bit `i` is row `i`, i.e. RID `i`, so a mask over a
  * table of `numRows` rows holds `ceil(numRows / 64)` words and no bit at or
  * above `numRows` is ever set.
  */
final class RowMask(val numRows: Int, val words: Array[Long]) {
  require(words.length == RowMask.wordsFor(numRows), s"$numRows rows need ${RowMask.wordsFor(numRows)} words")

  def this(numRows: Int) = this(numRows, new Array[Long](RowMask.wordsFor(numRows)))

  def contains(i: Int): Boolean = i >= 0 && i < numRows && (words(i >>> 6) & (1L << i)) != 0

  /** Set row `i`; the caller guarantees `0 <= i < numRows`. */
  def set(i: Int): Unit = words(i >>> 6) |= 1L << i

  /** Add RID `v` of column `colName`. -1, the dangling-FK sentinel, matches
    * no row and is skipped; any other value outside `[0, numRows)` has no
    * bit and fails, naming the column.
    */
  def add(v: Long, colName: String): Unit =
    if (v >= 0 && v < numRows) set(v.toInt)
    else if (v != -1) throw new IllegalArgumentException(
      s"$colName: RID $v is outside the $numRows rows of its table")

  def cardinality: Int = {
    var n = 0
    var w = 0
    while (w < words.length) { n += java.lang.Long.bitCount(words(w)); w += 1 }
    n
  }

  def isEmpty: Boolean = words.forall(_ == 0L)

  /** The rows in both masks, as a new mask. */
  def and(o: RowMask): RowMask = {
    require(o.numRows == numRows, s"cannot AND masks over $numRows and ${o.numRows} rows")
    val out = new Array[Long](words.length)
    var w = 0
    while (w < out.length) { out(w) = words(w) & o.words(w); w += 1 }
    new RowMask(numRows, out)
  }

  /** Add every row of `o` to this mask. */
  def orInPlace(o: RowMask): Unit = {
    require(o.numRows == numRows, s"cannot OR masks over $numRows and ${o.numRows} rows")
    var w = 0
    while (w < words.length) { words(w) |= o.words(w); w += 1 }
  }

  /** The set rows, ascending. */
  def toArray: Array[Int] = {
    val out = new Array[Int](cardinality)
    var k = 0
    var w = 0
    while (w < words.length) {
      var bits = words(w)
      while (bits != 0L) {
        out(k) = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        k += 1
        bits &= bits - 1
      }
      w += 1
    }
    out
  }
}

object RowMask {
  def wordsFor(numRows: Int): Int = {
    require(numRows >= 0, s"negative row count $numRows")
    (numRows + 63) >>> 6
  }
}
