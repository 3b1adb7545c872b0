package repro.columnar

import org.roaringbitmap.RoaringBitmap
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.Try

/** The serial engine's kernels on hand-built tables, without Spark. */
class KernelsSpec extends AnyFunSuite {

  // -1 is the null/dangling long sentinel, NaN the null double.
  private val t = new TableData("t", IndexedSeq("l", "d", "s"), IndexedSeq(
    LongCol(Array(-1L, 0L, 2L, 5L, Long.MaxValue, 2L, (1L << 53) + 1)),
    DoubleCol(Array(Double.NaN, 0.0, 2.0, 5.5, -0.0, Double.NegativeInfinity, 2.5)),
    StringCol(Array(null, "", "a", "b", "ab", "a", null)),
  ), 7)

  private val ops = Seq(OpEq, OpNe, OpLt, OpLe, OpGt, OpGe)
  private val lits: Seq[Lit] =
    Seq(-1L, 0L, 2L, 5L, Long.MaxValue, 1L << 53).map(LL(_)) ++
      Seq(Double.NaN, 0.0, -0.0, 2.0, 2.5, 5.5).map(LD(_)) ++
      Seq("", "a", "ab", "b", "z").map(LS(_))

  /** The compiled predicate and [[Pred.eval]] agree on every row: same
    * result, or both fail (incomparable column and literal). */
  private def agrees(p: Pred): Boolean = {
    val compiled = CompiledPred(p, t)
    (0 until t.numRows).forall { r =>
      val want = Try(Pred.eval(p, c => t.col(c).any(r)))
      val got  = Try(compiled(r))
      want.isFailure && got.isFailure || want.toOption == got.toOption
    }
  }

  test("compiled comparisons match Pred.eval for every op × literal × column type") {
    for (c <- t.colNames; op <- ops; l <- lits)
      assert(agrees(Cmp(c, op, l)), s"Cmp($c, $op, $l)")
    for (c <- t.colNames; l <- lits)
      assert(agrees(InList(c, Seq(l))), s"InList($c, $l)")
  }

  test("property: compiled predicates match Pred.eval on random predicate trees") {
    val leaf: Gen[Pred] = for {
      c  <- Gen.oneOf(t.colNames)
      in <- Gen.oneOf(true, false)
      p  <- if (in) Gen.nonEmptyListOf(Gen.oneOf(lits)).map(InList(c, _))
            else Gen.zip(Gen.oneOf(ops), Gen.oneOf(lits)).map { case (op, l) => Cmp(c, op, l) }
    } yield p
    def tree(depth: Int): Gen[Pred] =
      if (depth == 0) leaf
      else Gen.frequency(
        2 -> leaf,
        1 -> Gen.choose(0, 3).flatMap(Gen.listOfN(_, tree(depth - 1))).map(AndP(_)),
        1 -> Gen.choose(0, 3).flatMap(Gen.listOfN(_, tree(depth - 1))).map(OrP(_)))
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500),
      Prop.forAll(tree(3))(agrees))
    assert(res.passed, res.status.toString)
  }

  private def bm(xs: Int*): RoaringBitmap = { val b = new RoaringBitmap(); xs.foreach(b.add); b }

  /** ScanSJ as a zone loop: every zone holding a set bit is walked row by
    * row, testing each row against the bitmask; the rest are skipped. */
  private def zoneLoop(numRows: Int, combined: RoaringBitmap): (Seq[Int], Long, Long) = {
    val zones = Bitmap.zones(combined)
    val zs = Bitmap.ZoneSize
    val nZones = (numRows + zs - 1) / zs
    val rows = Seq.newBuilder[Int]
    var skipped = 0L
    for (z <- 0 until nZones) {
      if (zones.contains(z)) (z * zs until math.min((z + 1) * zs, numRows)).foreach { i =>
        if (combined.contains(i)) rows += i
      } else skipped += 1
    }
    val r = rows.result()
    (r, r.size.toLong, skipped)
  }

  test("set-bit ScanSJ keeps the zone loop's scanned and zonesSkipped counts") {
    Bitmap.withZoneSize(4) {
      // 7 rows: zones {0..3} and the partial {4..6, 7 is past the end}
      val cases = Seq(
        "bits in a few zones"       -> bm(1, 2, 5),
        "one bit per zone"          -> bm(0, 6),
        "bits at or above numRows"  -> bm(2, 7, 8, 12, 1000),
        "only a bit past the end"   -> bm(7),
        "only bits in later zones"  -> bm(9, 40),
        "a negative bit"            -> bm(3, -5),
        "empty bitmask"             -> new RoaringBitmap())
      for ((name, b) <- cases) {
        val out = Scan.setBits(t.numRows, b, Scan.NoPred)
        val (rows, scanned, skipped) = zoneLoop(t.numRows, b)
        assert(out.scanned == scanned, name)
        assert(out.zonesSkipped == skipped, name)
        assert(out.rows.toSeq == rows, name)
      }
      assert(Scan.setBits(t.numRows, new RoaringBitmap(), Scan.NoPred).zonesSkipped == 2)
    }
  }

  test("set-bit ScanSJ tests the predicate on the rows it scans only") {
    Bitmap.withZoneSize(4) {
      val p = CompiledPred(Pred.eqS("s", "a"), t)
      val out = Scan.setBits(t.numRows, bm(0, 2, 3, 5, 6), p)
      assert(out.rows.toSeq == Seq(2, 5))
      assert(out.scanned == 5)
    }
  }

  test("hash join pairs equal keys in probe order, then build order") {
    val rel = Rel.leaf("a", t, Array.range(0, t.numRows))
    val (li, ri) = Join.hash(Seq(rel.col("a", "l")), rel.size, Seq(rel.col("a", "l")), rel.size)
    val want = for (r <- 0 until 7; l <- 0 until 7 if t.col("l").any(l) == t.col("l").any(r)) yield (l, r)
    assert(li.toSeq.zip(ri.toSeq) == want)
    // a string key takes the boxed path: null joins null, as boxed equality does
    val (ls, rs) = Join.hash(Seq(rel.col("a", "s")), rel.size, Seq(rel.col("a", "s")), rel.size)
    assert(ls.zip(rs).count { case (l, r) => t.col("s").any(l) == null && l != r } == 2)
  }

  test("a dense __rid build key probes by direct address") {
    val rel = Rel.leaf("a", t, Array(6, 2, 2, 0))
    val ht = new LongMultiMap(rel.col("a", "__rid"), rel.size)
    assert(ht.first(2) == 1 && ht.next(1) == 2 && ht.next(2) == -1)
    assert(ht.first(6) == 0 && ht.first(5) == -1 && ht.first(-1) == -1 && ht.first(7) == -1)
  }

  test("a tiny __rid build over a large table hashes, with the dense path's pairs") {
    val ids = Array(5, 2, 5)
    val probe = new ColRef("p.l", Array.range(0, 6), LongCol(Array(5L, -1L, 2L, 7L, 5L, 1L << 40)), -1)
    def pairs(ridBound: Int) = {
      val build = new ColRef("a.__rid", ids, null, ridBound)
      val (li, ri) = Join.hash(Seq(build), ids.length, Seq(probe), 6)
      (new LongMultiMap(build, ids.length).dense, li.toSeq.zip(ri.toSeq))
    }
    val (small, dense) = pairs(8)
    val (large, hashed) = pairs(1 << 24)
    assert(small && !large)
    assert(hashed == dense)
    assert(dense == Seq((0, 0), (2, 0), (1, 2), (0, 4), (2, 4)))
  }

  test("bitmask build fails loudly on a RID above Int.MaxValue, naming the column") {
    val rel = Rel.leaf("a", t, Array(0, 1, 2))
    assert(rel.col("a", "l").bitmap.toArray.toSeq == Seq(0, 2)) // -1 (dangling) skipped
    val e = intercept[IllegalArgumentException](Rel.leaf("a", t, Array(4)).col("a", "l").bitmap)
    assert(e.getMessage.contains("t.l"))
  }
}
