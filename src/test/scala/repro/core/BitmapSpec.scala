package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** Row/zone bitmask machinery for sip. */
class BitmapSpec extends SparkSpec {

  /** A row mask over `numRows` rows holding `xs`. */
  private def bm(numRows: Int)(xs: Int*): RowMask = {
    val m = new RowMask(numRows); xs.foreach(x => m.add(x.toLong, "rid")); m
  }

  /** The predicate `semiJoinFilter` ships for `m`, after the Java
    * serialization round trip Spark gives a UDF on its way to a task. */
  private def shipped(m: RowMask): Bitmap.RidPred = {
    val buf = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(buf)
    out.writeObject(new Bitmap.RidPred(m.numRows, m.words))
    out.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(buf.toByteArray))
      .readObject().asInstanceOf[Bitmap.RidPred]
  }
  private def contains(p: Bitmap.RidPred, x: Int): Boolean = p.call(x.toLong)

  test("serialize/deserialize round-trips membership") {
    val im = shipped(bm(900001)(0, 5, 1023, 1024, 900000))
    Seq(0, 5, 1023, 1024, 900000).foreach(x => assert(contains(im, x)))
    Seq(1, 1025, 899999).foreach(x => assert(!contains(im, x)))
  }

  test("zones projects RIDs to zone numbers") {
    val z = Bitmap.zones(bm(6 * Bitmap.ZoneSize)(0, 1, Bitmap.ZoneSize - 1, Bitmap.ZoneSize, 5 * Bitmap.ZoneSize))
    assert(z.toArray.toSeq == Seq(0, 1, 5))
  }

  test("fromColumn collects non-negative RIDs, skipping -1 (dangling)") {
    import spark.implicits._
    val df = Seq(0L, 5L, -1L, 5L, 77L).toDF("rid")
    val b = Bitmap.fromColumn(df, "rid", 100)
    assert(b.toArray.toSeq == Seq(0, 5, 77))
  }

  test("fromColumn ORs the words of every partition") {
    import spark.implicits._
    val df = Seq(0L, 64L, 5L, -1L, 129L, 5L, 77L).toDF("rid").repartition(3)
    assert(Bitmap.fromColumn(df, "rid", 130).toArray.toSeq == Seq(0, 5, 64, 77, 129))
  }

  test("fromColumn fails loudly on a RID above Int.MaxValue, naming the column") {
    import spark.implicits._
    val df = Seq(0L, Int.MaxValue.toLong + 1).toDF("rid_x")
    val e = intercept[Exception](Bitmap.fromColumn(df, "rid_x", 10))
    val msgs = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
    assert(msgs.exists(m => m != null && m.contains("rid_x: RID 2147483648")), e.toString)
  }

  test("fromColumn fails on a RID at or above the table's rows or below -1, naming the column") {
    import spark.implicits._
    for (bad <- Seq(7L, 8L, 1000L, -5L)) {
      val df = Seq(2L, bad).toDF("rid_x")
      val e = intercept[Exception](Bitmap.fromColumn(df, "rid_x", 7))
      val msgs = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
      assert(msgs.exists(m => m != null && m.contains(s"rid_x: RID $bad")), e.toString)
    }
  }

  test("semiJoinFilter keeps exactly the rows in the bitmap") {
    val df = spark.range(0, 100).toDF("r")
    val kept = Bitmap.semiJoinFilter(df, "r", bm(100)(3, 7, 99)).collect().map(_.getLong(0))
    assert(kept.sorted.toSeq == Seq(3L, 7L, 99L))
  }

  test("semiJoinFilter drops null and negative RIDs") {
    import spark.implicits._
    val df = Seq(Some(1L), None, Some(-1L), Some(2L)).toDF("r")
    val kept = Bitmap.semiJoinFilter(df, "r", bm(3)(1, 2)).collect().map(_.getLong(0))
    assert(kept.sorted.toSeq == Seq(1L, 2L))
  }

  test("property: round-trip preserves arbitrary membership sets") {
    val prop = Prop.forAll(Gen.listOf(Gen.choose(0, 1 << 20))) { xs =>
      val b = bm((1 << 20) + 1)(xs: _*)
      val im = shipped(b)
      xs.forall(contains(im, _)) && (0 to (1 << 20)).count(contains(im, _)) == xs.toSet.size
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(50), prop)
    assert(res.passed, res.status.toString)
  }
}
