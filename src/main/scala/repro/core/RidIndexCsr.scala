package repro.core

/** In-memory RID index (§5) in compressed-sparse-row form — the analogue of a
  * GDBMS adjacency-list index.
  *
  * Keys are the RIDs of the pointed-to table P (0 until `nKeys`); for each key
  * the index stores the RIDs of the F rows whose materialized `rid_<fk>`
  * column equals the key. The *extended* form (§5.2) additionally stores, for
  * each F row, the RID of the other entity table the relationship F points to
  * (the neighbour node, in graph terms), enabling join merging.
  *
  * @param otherRids F-entry-aligned RIDs of the second predefined join's
  *                  target, or `null` when the index is not extended.
  */
final class RidIndexCsr(
    val nKeys: Int,
    val offsets: Array[Int],
    val fRids: Array[Int],
    val otherRids: Array[Int],
) {
  require(offsets.length == nKeys + 1, "offsets must have nKeys+1 entries")
  def nEntries: Int = fRids.length
  def extended: Boolean = otherRids != null

  def degree(key: Int): Int = offsets(key + 1) - offsets(key)

  /** A copy of the F-RIDs joining with `key`, for inspecting the index. */
  def neighbors(key: Int): Array[Int] =
    java.util.Arrays.copyOfRange(fRids, offsets(key), offsets(key + 1))

  /** Reverse-semijoin bitmask (§5.1): union of F-RID lists over the P-RIDs in
    * `keys` — what SJoinIdxR passes to ScanSJ(F). The mask is sized to F's
    * `fRows` rows; keys at or above `nKeys` have no list and are ignored.
    */
  def mapToF(keys: RowMask, fRows: Int): RowMask = mapThrough(keys, fRids, fBound, fRows)

  /** Other-side RIDs reachable from `keys` (join-merged semijoin bitmask,
    * §5.2), as a mask over the other table's `otherRows` rows. A dangling
    * other-FK (-1) reaches no row.
    */
  def mapToOther(keys: RowMask, otherRows: Int): RowMask = mapThrough(keys, otherRids, otherBound, otherRows)

  /** One past the largest F (other) RID the index holds. */
  private lazy val fBound = fRids.foldLeft(-1)(math.max) + 1
  private lazy val otherBound = otherRids.foldLeft(-1)(math.max) + 1

  /** The mask over `outRows` rows of `targets(i)` for every entry `i` of
    * every key in `keys`, skipping -1. `bound` is one past the largest
    * target, so a too-small table fails here instead of setting a bit
    * beyond its rows.
    */
  private def mapThrough(keys: RowMask, targets: Array[Int], bound: Int, outRows: Int): RowMask = {
    require(outRows >= bound, s"RID index: RID ${bound - 1} is outside the $outRows rows of its table")
    val out = new RowMask(outRows)
    val ow = out.words
    val kw = keys.words
    val nw = math.min(kw.length, RowMask.wordsFor(nKeys))
    var w = 0
    while (w < nw) {
      var bits = kw(w)
      while (bits != 0L) {
        val k = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        if (k < nKeys) {
          var i = offsets(k)
          val end = offsets(k + 1)
          while (i < end) {
            val t = targets(i)
            if (t >= 0) ow(t >>> 6) |= 1L << t
            i += 1
          }
        }
        bits &= bits - 1
      }
      w += 1
    }
    out
  }

  /** Join-merging (§5.2): (keyRid, otherRid) pairs for every key in `keys`,
    * in key order, produced without touching F's columns — the implicit
    * join with F.
    */
  def pairsFor(keys: RowMask): (Array[Int], Array[Int]) = {
    val kw = keys.words
    val nw = math.min(kw.length, RowMask.wordsFor(nKeys))
    var total = 0
    var w = 0
    while (w < nw) {
      var bits = kw(w)
      while (bits != 0L) {
        val k = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        if (k < nKeys) total += degree(k)
        bits &= bits - 1
      }
      w += 1
    }
    val ks = new Array[Int](total)
    val os = new Array[Int](total)
    var n = 0
    w = 0
    while (w < nw) {
      var bits = kw(w)
      while (bits != 0L) {
        val k = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        if (k < nKeys) {
          var i = offsets(k)
          val end = offsets(k + 1)
          while (i < end) {
            // dangling other-FK (-1): the F row matches no P2 row, skip
            if (otherRids(i) >= 0) { ks(n) = k; os(n) = otherRids(i); n += 1 }
            i += 1
          }
        }
        bits &= bits - 1
      }
      w += 1
    }
    (java.util.Arrays.copyOf(ks, n), java.util.Arrays.copyOf(os, n))
  }

  /** Approximate heap bytes (for the §7.2.2 memory-consumption comparison). */
  def sizeBytes: Long =
    4L * (offsets.length + fRids.length + (if (extended) otherRids.length else 0))
}

object RidIndexCsr {
  /** Build from parallel arrays of (key RID, F RID[, other RID]) tuples. */
  def build(nKeys: Int, keys: Array[Int], fs: Array[Int], others: Array[Int]): RidIndexCsr = {
    val n = keys.length
    val counts = new Array[Int](nKeys + 1)
    var i = 0
    while (i < n) { if (keys(i) >= 0) counts(keys(i) + 1) += 1; i += 1 }
    i = 0
    while (i < nKeys) { counts(i + 1) += counts(i); i += 1 }
    val offsets = counts.clone()
    val fOut = new Array[Int](offsets(nKeys))
    val oOut = if (others != null) new Array[Int](offsets(nKeys)) else null
    val cursor = offsets.clone()
    i = 0
    while (i < n) {
      val k = keys(i)
      if (k >= 0) {
        val w = cursor(k)
        fOut(w) = fs(i)
        if (oOut != null) oOut(w) = others(i)
        cursor(k) = w + 1
      }
      i += 1
    }
    new RidIndexCsr(nKeys, offsets, fOut, oOut)
  }
}
