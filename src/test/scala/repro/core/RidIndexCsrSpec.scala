package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.Inspect

/** CSR RID index: construction, lookups, reverse/merged bitmask mapping. */
class RidIndexCsrSpec extends AnyFunSuite {

  /** A key mask over the index's P rows (or more, to hold `xs`). */
  private def bm(xs: Int*): RowMask = {
    val m = new RowMask(math.max(4, if (xs.isEmpty) 0 else xs.max + 1))
    xs.foreach(x => m.add(x.toLong, "p.__rid")); m
  }
  // F (Follows) and other-side (Person) row counts of the running example.
  private val FRows = 5
  private val PRows = 4

  // The running-example Follows index (Fig. 2): keys = Person RIDs,
  // positions = Follows RIDs.
  private val idx = RidIndexCsr.build(
    nKeys = 4,
    keys = Array(0, 2, 0, 1, 0),   // rid_ID1 per Follows row
    others = Array(1, 3, 2, 2, 3)) // rid_ID2 per Follows row

  test("degree and neighbors match the running example") {
    assert(Inspect.degree(idx, 0) == 3)
    assert(Inspect.degree(idx, 1) == 1)
    assert(Inspect.degree(idx, 2) == 1)
    assert(Inspect.degree(idx, 3) == 0)
    assert(Inspect.neighbors(idx, 0).sorted.toSeq == Seq(0, 2, 4))
    assert(Inspect.neighbors(idx, 1).toSeq == Seq(3)) // Karim's only follows row
  }

  test("mapToF unions F-RID lists (reverse semijoin bitmask)") {
    assert(idx.mapToF(bm(1), FRows).toArray.toSeq == Seq(3))
    assert(idx.mapToF(bm(0, 2), FRows).toArray.sorted.toSeq == Seq(0, 1, 2, 4))
    assert(idx.mapToF(bm(3), FRows).isEmpty)
    assert(idx.mapToF(bm(), FRows).isEmpty)
  }

  test("mapToF ignores out-of-range keys") {
    assert(idx.mapToF(bm(17), FRows).isEmpty)
  }

  test("walk preserves multiplicity (one pair per F row)") {
    val (ps, os) = idx.walk(Array(0))
    assert(ps.toSeq == Seq(0, 0, 0))
    assert(os.toSeq == Seq(1, 2, 3))
  }

  test("walk gives one run per key position, in keys order") {
    // repeated and unordered keys, and a key (3) with an empty range
    val (ps, os) = idx.walk(Array(2, 0, 3, 2))
    assert(ps.toSeq == Seq(0, 1, 1, 1, 3))
    assert(os.toSeq == Seq(3, 1, 2, 3, 3))
  }

  test("walk of no keys gives no pairs") {
    val (ps, os) = idx.walk(Array.empty)
    assert(ps.isEmpty && os.isEmpty)
  }

  test("walk fails on a key at or above nKeys") {
    for (bad <- Seq(4, 5, 17)) intercept[IndexOutOfBoundsException](idx.walk(Array(0, bad)))
  }

  test("mapToOther gives reachable other-side RIDs") {
    assert(idx.mapToOther(bm(0), PRows).toArray.sorted.toSeq == Seq(1, 2, 3))
    assert(idx.mapToOther(bm(1), PRows).toArray.toSeq == Seq(2))
  }

  test("dangling other-RIDs (-1) are skipped by walk/mapToOther") {
    val d = RidIndexCsr.build(2, Array(0, 0, 1), Array(5, -1, -1))
    val (ps, os) = d.walk(Array(0, 1))
    assert(ps.toSeq == Seq(0) && os.toSeq == Seq(5))
    assert(d.mapToOther(bm(0, 1), 6).toArray.toSeq == Seq(5))
    // but mapToF (reverse semijoin) still sees all F rows
    assert(d.mapToF(bm(0, 1), 3).toArray.sorted.toSeq == Seq(0, 1, 2))
  }

  /** One entry, key 0 -> F RID 9: the last of ten F rows, nine dangling. */
  private val plain = RidIndexCsr.build(4, Array.fill(9)(-1) :+ 0, null)

  test("mapping into a table too small for the index's RIDs fails") {
    val e = intercept[IllegalArgumentException](idx.mapToF(bm(0), FRows - 1))
    assert(e.getMessage.contains("RID 4 is outside the 4 rows"))
    intercept[IllegalArgumentException](idx.mapToOther(bm(0), PRows - 1))
    assert(Inspect.neighbors(plain, 0).toSeq == Seq(9))
    val f = intercept[IllegalArgumentException](plain.mapToF(bm(0), 9))
    assert(f.getMessage.contains("RID 9 is outside the 9 rows"))
  }

  test("dangling keys (-1) are dropped at build time") {
    val d = RidIndexCsr.build(2, Array(-1, 1), null)
    assert(d.nEntries == 1)
    assert(Inspect.neighbors(d, 1).toSeq == Seq(1))
    assert(!d.extended)
  }

  test("sizeBytes counts offsets + entries (+ extension)") {
    assert(idx.sizeBytes == 4L * (5 + 5 + 5))
    assert(plain.sizeBytes == 4L * (5 + 1))
  }

  test("property: mapToF equals brute-force scan of the key array") {
    val gen = for {
      nKeys <- Gen.choose(1, 30)
      n     <- Gen.choose(0, 200)
      keys  <- Gen.listOfN(n, Gen.choose(0, nKeys - 1))
      probe <- Gen.listOf(Gen.choose(0, nKeys - 1))
    } yield (nKeys, keys, probe)
    val prop = Prop.forAll(gen) { case (nKeys, keys, probe) =>
      val built = RidIndexCsr.build(nKeys, keys.toArray, null)
      val probeSet = probe.toSet
      val expected = keys.zipWithIndex.collect { case (k, i) if probeSet(k) => i }.toSet
      built.mapToF(bm(probe: _*), keys.size).toArray.toSet == expected
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }
}
