package repro.core

import org.roaringbitmap.RoaringBitmap
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** Row/zone bitmask machinery for sip. */
class BitmapSpec extends SparkSpec {

  private def bm(xs: Int*): RoaringBitmap = {
    val b = new RoaringBitmap(); xs.foreach(b.add); b
  }

  test("serialize/deserialize round-trips membership") {
    val b = bm(0, 5, 1023, 1024, 900000)
    val im = Bitmap.deserialize(Bitmap.serialize(b))
    Seq(0, 5, 1023, 1024, 900000).foreach(x => assert(im.contains(x)))
    Seq(1, 1025, 899999).foreach(x => assert(!im.contains(x)))
  }

  test("zones projects RIDs to zone numbers") {
    val z = Bitmap.zones(bm(0, 1, Bitmap.ZoneSize - 1, Bitmap.ZoneSize, 5 * Bitmap.ZoneSize))
    assert(z.toArray.toSeq == Seq(0, 1, 5))
  }

  test("scannedAfterZoneSkip = surviving zones × zone size, capped") {
    val zs = Bitmap.ZoneSize
    assert(Bitmap.scannedAfterZoneSkip(bm(0), tableRows = 10 * zs) == zs)
    assert(Bitmap.scannedAfterZoneSkip(bm(0, zs + 1), tableRows = 10 * zs) == 2L * zs)
    // same zone twice counts once
    assert(Bitmap.scannedAfterZoneSkip(bm(1, 2, 3), tableRows = 10 * zs) == zs)
    // capped at the table size
    assert(Bitmap.scannedAfterZoneSkip(bm(0), tableRows = 10) == 10)
    assert(Bitmap.scannedAfterZoneSkip(new RoaringBitmap, tableRows = 100) == 0)
  }

  test("fromColumn collects non-negative RIDs, skipping -1 (dangling)") {
    import spark.implicits._
    val df = Seq(0L, 5L, -1L, 5L, 77L).toDF("rid")
    val b = Bitmap.fromColumn(df, "rid")
    assert(b.toArray.toSeq == Seq(0, 5, 77))
  }

  test("fromColumn fails loudly on a RID above Int.MaxValue, naming the column") {
    import spark.implicits._
    val df = Seq(0L, Int.MaxValue.toLong + 1).toDF("rid_x")
    val e = intercept[Exception](Bitmap.fromColumn(df, "rid_x"))
    val msgs = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
    assert(msgs.exists(m => m != null && m.contains("rid_x: RID 2147483648")), e.toString)
  }

  test("semiJoinFilter keeps exactly the rows in the bitmap") {
    import spark.implicits._
    val df = spark.range(0, 100).toDF("r")
    val kept = Bitmap.semiJoinFilter(df, "r", bm(3, 7, 99)).collect().map(_.getLong(0))
    assert(kept.sorted.toSeq == Seq(3L, 7L, 99L))
  }

  test("semiJoinFilter drops null and negative RIDs") {
    import spark.implicits._
    val df = Seq(Some(1L), None, Some(-1L), Some(2L)).toDF("r")
    val kept = Bitmap.semiJoinFilter(df, "r", bm(1, 2)).collect().map(_.getLong(0))
    assert(kept.sorted.toSeq == Seq(1L, 2L))
  }

  test("property: round-trip preserves arbitrary membership sets") {
    val prop = Prop.forAll(Gen.listOf(Gen.choose(0, 1 << 20))) { xs =>
      val b = bm(xs: _*)
      val im = Bitmap.deserialize(Bitmap.serialize(b))
      xs.forall(im.contains) && im.getLongCardinality == xs.toSet.size
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(50), prop)
    assert(res.passed, res.status.toString)
  }
}
