package repro.core

import org.roaringbitmap.RoaringBitmap

/** The RoaringBitmap formulation of the RID-index mappings and of ScanSJ
  * that [[RowMask]] replaced, kept as the reference of the differential
  * test: one unsorted `add` per RID, and a set-bit scan over the bitmap's
  * unsigned int iterator.
  */
object RoaringReference {
  def of(rids: Iterable[Int]): RoaringBitmap = { val b = new RoaringBitmap(); rids.foreach(b.add); b }

  def mapToF(idx: RidIndexCsr, keys: RoaringBitmap): RoaringBitmap = {
    val out = new RoaringBitmap()
    val it = keys.getIntIterator
    while (it.hasNext) {
      val k = it.next()
      if (k >= 0 && k < idx.nKeys) {
        var i = idx.offsets(k)
        while (i < idx.offsets(k + 1)) { out.add(idx.fRids(i)); i += 1 }
      }
    }
    out
  }

  def mapToOther(idx: RidIndexCsr, keys: RoaringBitmap): RoaringBitmap = {
    val out = new RoaringBitmap()
    val it = keys.getIntIterator
    while (it.hasNext) {
      val k = it.next()
      if (k >= 0 && k < idx.nKeys) {
        var i = idx.offsets(k)
        while (i < idx.offsets(k + 1)) { if (idx.otherRids(i) >= 0) out.add(idx.otherRids(i)); i += 1 }
      }
    }
    out
  }

  def pairsFor(idx: RidIndexCsr, keys: RoaringBitmap): (Array[Int], Array[Int]) = {
    val ks = Array.newBuilder[Int]
    val os = Array.newBuilder[Int]
    val it = keys.getIntIterator
    while (it.hasNext) {
      val k = it.next()
      if (k >= 0 && k < idx.nKeys) {
        var i = idx.offsets(k)
        while (i < idx.offsets(k + 1)) {
          if (idx.otherRids(i) >= 0) { ks += k; os += idx.otherRids(i) }
          i += 1
        }
      }
    }
    (ks.result(), os.result())
  }

  /** ScanSJ over a Roaring row bitmask: (kept rows, scanned, zonesSkipped).
    * Bits at or above `numRows` are not scanned, but a bit in the table's
    * last, partial zone still counts that zone as touched.
    */
  def setBits(numRows: Int, bm: RoaringBitmap, zs: Int, pred: Int => Boolean): (Seq[Int], Long, Long) = {
    val nZones = (numRows + zs - 1) / zs
    val out = Seq.newBuilder[Int]
    var scanned = 0L
    var touched = 0L
    var lastZone = -1
    val it = bm.getIntIterator
    var more = it.hasNext
    while (more) {
      val i = it.next()
      // Iteration is unsigned, so a negative bit comes after every row.
      val z = if (i < 0) nZones else i / zs
      if (z >= nZones) more = false
      else {
        if (z != lastZone) { touched += 1; lastZone = z }
        if (i < numRows) {
          scanned += 1
          if (pred(i)) out += i
        }
        more = it.hasNext
      }
    }
    (out.result(), scanned, nZones - touched)
  }
}
