package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.columnar.Scan

/** The dense row bitmask, and a differential test of the RID-index mappings
  * and ScanSJ over it against their RoaringBitmap formulation
  * ([[RoaringReference]]).
  */
class RowMaskSpec extends AnyFunSuite {

  test("add sets rows, skips -1 and fails on any other RID outside the table, naming the column") {
    val m = new RowMask(70)
    Seq(0L, 63L, 64L, 69L, -1L, 63L).foreach(m.add(_, "f.rid_p"))
    assert(m.toArray.toSeq == Seq(0, 63, 64, 69))
    assert(m.cardinality == 4 && !m.isEmpty)
    assert(m.contains(64) && !m.contains(65) && !m.contains(70) && !m.contains(-1))
    for (bad <- Seq(70L, 128L, Int.MaxValue.toLong + 1, -2L, Long.MinValue)) {
      val e = intercept[IllegalArgumentException](m.add(bad, "f.rid_p"))
      assert(e.getMessage.contains(s"f.rid_p: RID $bad"), e.getMessage)
    }
  }

  test("and, orInPlace and toArray work word by word over a partial last word") {
    def of(xs: Int*) = { val m = new RowMask(130); xs.foreach(x => m.add(x.toLong, "r")); m }
    val a = of(1, 64, 65, 129)
    val b = of(0, 65, 129)
    assert(a.and(b).toArray.toSeq == Seq(65, 129))
    a.orInPlace(b)
    assert(a.toArray.toSeq == Seq(0, 1, 64, 65, 129))
    assert(new RowMask(0).isEmpty && new RowMask(0).toArray.isEmpty)
    intercept[IllegalArgumentException](a.and(new RowMask(129)))
  }

  /** A random extended index: F rows point at `nKeys` P rows and at
    * `otherRows` other rows, each FK dangling (-1) now and then. */
  private val genIndex: Gen[(RidIndexCsr, Int, Int)] = for {
    nKeys     <- Gen.choose(0, 200)
    otherRows <- Gen.choose(0, 150)
    fRows     <- Gen.choose(0, 300)
    keys      <- Gen.listOfN(fRows, rid(nKeys))
    others    <- Gen.listOfN(fRows, rid(otherRows))
  } yield (RidIndexCsr.build(nKeys, keys.toArray, Array.range(0, fRows), others.toArray), fRows, otherRows)

  private def rid(rows: Int): Gen[Int] =
    if (rows == 0) Gen.const(-1) else Gen.frequency(1 -> Gen.const(-1), 6 -> Gen.choose(0, rows - 1))

  /** A subset of `0 until rows`: empty, sparse, or dense. */
  private def subset(rows: Int): Gen[Seq[Int]] =
    if (rows == 0) Gen.const(Seq.empty)
    else Gen.frequency(
      1 -> Gen.const(Seq.empty[Int]),
      3 -> Gen.listOf(Gen.choose(0, rows - 1)),
      1 -> Gen.choose(0.0, 1.0).flatMap(p => Gen.listOfN(rows, Gen.prob(p))
        .map(_.zipWithIndex.collect { case (true, i) => i })))

  private def mask(rows: Int, xs: Seq[Int]): RowMask = {
    val m = new RowMask(rows); xs.foreach(x => m.add(x.toLong, "k")); m
  }

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20240L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
  }

  test("property: mapToF, mapToOther and pairsFor match the RoaringBitmap formulation") {
    val gen = for {
      (idx, fRows, otherRows) <- genIndex
      // key masks may be wider than the index: keys at or above nKeys have no list
      extra <- Gen.oneOf(0, 0, 1, 70)
      probe <- subset(idx.nKeys + extra)
    } yield (idx, fRows, otherRows, extra, probe)
    check(Prop.forAll(gen) { case (idx, fRows, otherRows, extra, probe) =>
      val keys = mask(idx.nKeys + extra, probe)
      val ref = RoaringReference.of(probe)
      val (ks, os) = idx.pairsFor(keys)
      val (rks, ros) = RoaringReference.pairsFor(idx, ref)
      idx.mapToF(keys, fRows).toArray.toSeq == RoaringReference.mapToF(idx, ref).toArray.toSeq &&
        idx.mapToOther(keys, otherRows).toArray.toSeq == RoaringReference.mapToOther(idx, ref).toArray.toSeq &&
        ks.toSeq == rks.toSeq && os.toSeq == ros.toSeq
    })
  }

  test("property: the set-bit scan matches the RoaringBitmap scan for zone sizes 1-64") {
    val gen = for {
      numRows <- Gen.frequency(1 -> Gen.oneOf(0, 1, 63, 64, 65, 128), 4 -> Gen.choose(0, 300))
      zs      <- Gen.choose(1, 64)
      rows    <- subset(numRows)
      salt    <- Gen.choose(0, 2)
    } yield (numRows, zs, rows, salt)
    check(Prop.forAll(gen) { case (numRows, zs, rows, salt) =>
      val pred: Int => Boolean = i => (i + salt) % 3 != 0
      val out = Bitmap.withZoneSize(zs)(Scan.setBits(numRows, mask(numRows, rows), pred))
      val (refRows, refScanned, refSkipped) =
        RoaringReference.setBits(numRows, RoaringReference.of(rows), zs, pred)
      out.rows.toSeq == refRows && out.scanned == refScanned && out.zonesSkipped == refSkipped
    })
  }
}
