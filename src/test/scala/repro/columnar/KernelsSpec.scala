package repro.columnar

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.Inspect
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

  /** Two runs give the same rows, or both fail. */
  private def same(a: Try[Seq[Int]], b: Try[Seq[Int]]): Boolean =
    a.isFailure && b.isFailure || a.toOption == b.toOption

  /** [[PredReference.eval]]'s rows among `rows` of `tab`, in order; it
    * fails when any of them fails. */
  private def evalRows(p: Pred, tab: TableData, rows: Seq[Int]): Try[Seq[Int]] =
    Try(rows.filter(r => PredReference.eval(p, c => tab.col(c).any(r))))

  /** The filter's `select` into a fresh vector. */
  private def selected(f: Filter, rows: Array[Int]): Try[Seq[Int]] =
    Try { val out = new Array[Int](rows.length); out.take(f.select(rows, rows.length, out)).toSeq }

  /** The filter and [[PredReference.eval]] agree on every row of `t`, one
    * row at a time (same result, or both fail: incomparable column and
    * literal) and as one selection vector. */
  private def agrees(p: Pred): Boolean = {
    val f = Filter(p, t)
    val perRow = (0 until t.numRows).forall { r =>
      val want = Try(PredReference.eval(p, c => t.col(c).any(r)))
      val got  = Try(f(r))
      want.isFailure && got.isFailure || want.toOption == got.toOption
    }
    perRow && same(selected(f, Array.range(0, t.numRows)), evalRows(p, t, 0 until t.numRows))
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

  test("property: dictionary-coded string predicates match Pred.eval on repetitive columns with nulls") {
    val values = Seq[String](null, "", "a", "ab", "b", "z")
    val strLits = values.filter(_ != null).map(LS(_)) :+ LS("aa")
    val gen = for {
      col <- Gen.listOfN(200, Gen.frequency(3 -> Gen.const(null: String), 10 -> Gen.oneOf(values)))
      p   <- Gen.oneOf(
               Gen.zip(Gen.oneOf(ops), Gen.oneOf(strLits)).map { case (op, l) => Cmp("s", op, l) },
               // empty lists and repeated literals too
               Gen.listOf(Gen.oneOf(strLits)).flatMap(l => Gen.oneOf(l, l ++ l)).map(InList("s", _)))
    } yield (col.toArray, p)
    val prop = Prop.forAll(gen) { case (a, p) =>
      val st = new TableData("st", IndexedSeq("s"), IndexedSeq(StringCol(a)), a.length)
      val f = Filter(p, st)
      a.indices.forall(r => f(r) == PredReference.eval(p, _ => a(r))) &&
        same(selected(f, a.indices.toArray), evalRows(p, st, a.indices))
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20230L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
  }

  test("a string in-list: null codes, literals absent from the dictionary, duplicates, an empty list") {
    // 130 distinct values, so the membership bitmap spans three words
    val a = Array.tabulate[String](260)(i => if (i % 7 == 0) null else f"v${i % 130}%03d")
    val st = new TableData("st", IndexedSeq("s"), IndexedSeq(StringCol(a)), a.length)
    val rows = Array.range(0, a.length)
    for (ls <- Seq(Nil, Seq("zz"), Seq("v000", "v000"), Seq("v063", "v064", "nope", "v129", "v064"),
                   Seq("v001", "v128", "v127"), (0 until 130).map(i => f"v$i%03d"))) {
      val p = InList("s", ls.map(LS(_)))
      val want = evalRows(p, st, rows.toSeq)
      assert(selected(Filter(p, st), rows) == want, ls)
      assert(rows.filter(Filter(p, st)(_)).toSeq == want.get, ls)
      assert(want.get.forall(a(_) != null), ls) // a null is in no list
    }
    assert(Filter(InList("s", Nil), st).select(rows, rows.length, new Array[Int](rows.length)) == 0)
  }

  test("two filters compiled on one string column each keep their own rows") {
    val all = Array.range(0, t.numRows)
    for (p <- Seq(Pred.eqS("s", "a"), Pred.neS("s", "a"))) {
      val f = Filter(p, t)
      assert(selected(f, all) == evalRows(p, t, all.toSeq), p)
      for (r <- all) assert(f(r) == PredReference.eval(p, c => t.col(c).any(r)), s"$p at row $r")
    }
  }

  test("an incomparable string literal fails when a non-null row is tested, not when compiled") {
    val f = Filter(Cmp("s", OpLt, LL(3)), t)
    assert(!f(0) && !f(6)) // null rows
    intercept[RuntimeException](f(2))
    intercept[RuntimeException](f(2)) // a failed test leaves no state behind
    // a vector of null rows passes nothing, and fails on no row
    assert(f.select(Array(0, 6), 2, new Array[Int](2)) == 0)
    intercept[RuntimeException](f.select(Array(0, 2, 6), 3, new Array[Int](3)))
    intercept[RuntimeException](Scan.all(t, f))
  }

  test("AndF chains its children in place, each over the survivors of the ones before") {
    // s: null, "", "a", "b", "ab", "a", null; l: -1, 0, 2, 5, max, 2, 2^53+1
    val p = AndP(Seq(Cmp("l", OpGe, LL(0)), Cmp("s", OpNe, LS("ab")), Cmp("d", OpLt, LD(5.0))))
    val v = Array.range(0, t.numRows)
    val k = Filter(p, t).select(v, v.length, v)
    assert(v.take(k).toSeq == Seq(1, 2, 5) && evalRows(p, t, 0 until t.numRows).get == Seq(1, 2, 5))
    // A child that fails on a non-null row is tested only on the rows the
    // earlier children kept: here none, then two non-null ones.
    val none = AndP(Seq(Pred.eqS("s", "zz"), Cmp("s", OpLt, LL(3))))
    assert(Scan.all(t, Filter(none, t)).rows.isEmpty)
    intercept[RuntimeException](Scan.all(t, Filter(AndP(Seq(Pred.eqL("l", 2), Cmp("s", OpLt, LL(3)))), t)))
    // OR tests a later child only on the rows no earlier child passed.
    val or = OrP(Seq(Pred.eqS("s", "a"), Cmp("s", OpLt, LL(3))))
    assert(Scan.rows(Array(0, 2, 5, 6), Filter(or, t)).rows.toSeq == Seq(2, 5))
    intercept[RuntimeException](Scan.all(t, Filter(or, t)))
    // no rows in, no rows out, and no test run
    assert(Filter(Cmp("l", OpLt, LS("x")), t).select(v, 0, v) == 0)
  }

  test("property: Filter.select, Filter.apply and Pred.eval agree through Scan.all, Scan.rows and Scan.setBits") {
    // The dictionary holds some of "b" < "bd" < "d" < "f". The literals lie
    // below the smallest entry ("" and "a"), on an entry, between two
    // ("bc", "c", "e") and above the largest ("g").
    val strs = Seq("b", "bd", "d", "f")
    val strLits = Seq("", "a", "b", "bc", "bd", "c", "d", "e", "f", "g").map(LS(_))
    val longLits = Seq(-1L, 0L, 2L, 3L, Long.MaxValue).map(LL(_))
    val dblLits = Seq(Double.NaN, -0.0, 1.5, 3.0).map(LD(_))
    val litsOf = Map("l" -> (longLits ++ dblLits), "d" -> (dblLits ++ longLits), "s" -> strLits)
    val anyLit = Gen.oneOf(strLits ++ longLits ++ dblLits)
    val leaf: Gen[Pred] = for {
      c   <- Gen.oneOf("l", "d", "s")
      in  <- Gen.oneOf(true, false)
      // now and then a literal of another type: an empty in-list or an
      // incomparable comparison
      lit = Gen.frequency(30 -> Gen.oneOf(litsOf(c)), 1 -> anyLit)
      p   <- if (in) Gen.choose(1, 3).flatMap(Gen.listOfN(_, lit)).map(InList(c, _))
             else Gen.zip(Gen.oneOf(ops), lit).map { case (op, l) => Cmp(c, op, l) }
    } yield p
    def tree(depth: Int): Gen[Pred] =
      if (depth == 0) leaf
      else Gen.frequency(
        2 -> leaf,
        1 -> Gen.choose(0, 3).flatMap(Gen.listOfN(_, tree(depth - 1))).map(AndP(_)),
        1 -> Gen.choose(0, 3).flatMap(Gen.listOfN(_, tree(depth - 1))).map(OrP(_)))
    // every row passes these; the last chains two in-place selects
    val allPass = Gen.oneOf[Pred](AndP(Nil), Cmp("l", OpGe, LL(-1L)),
      AndP(Seq(Cmp("l", OpLe, LL(Long.MaxValue)), Cmp("l", OpGe, LL(-1L)))))
    val gen = for {
      n     <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.choose(1, 8), 4 -> Gen.choose(9, 150))
      ls    <- Gen.listOfN(n, Gen.oneOf(-1L, 0L, 1L, 2L, 3L, Long.MaxValue))
      ds    <- Gen.listOfN(n, Gen.oneOf(Double.NaN, -0.0, 0.0, 1.5, 3.0, Double.NegativeInfinity))
      ss    <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(null: String), 4 -> Gen.oneOf(strs)))
      p     <- Gen.frequency(8 -> tree(3), 1 -> allPass)
      // point-lookup rows: a subset in a random order, which select keeps
      inIds <- Gen.listOfN(n, Gen.oneOf(true, false))
      order <- Gen.listOfN(n, Gen.choose(0, 1000))
      bits  <- Gen.listOfN(n, Gen.oneOf(true, false))
    } yield (new TableData("r", IndexedSeq("l", "d", "s"),
      IndexedSeq(LongCol(ls.toArray), DoubleCol(ds.toArray), StringCol(ss.toArray)), n), p,
      (0 until n).filter(inIds(_)).sortBy(order(_)).toArray, bits.indices.filter(bits(_)))
    val prop = Prop.forAll(gen) { case (tab, p, ids, setRows) =>
      val n = tab.numRows
      val f = Filter(p, tab)
      val mask = new RowMask(n)
      setRows.foreach(r => mask.add(r.toLong, "r.__rid"))
      val bySetBits = Try(Scan.setBits(n, mask, f))
      val (zoneRows, zoneScanned, zoneSkipped) = zoneLoop(n, mask)
      Prop(same(Try(Scan.all(tab, f).rows.toSeq), evalRows(p, tab, 0 until n))) :| "Scan.all" &&
        Prop(same(Try(Scan.rows(ids, f).rows.toSeq), evalRows(p, tab, ids.toSeq))) :| "Scan.rows" &&
        Prop(same(bySetBits.map(_.rows.toSeq), evalRows(p, tab, zoneRows))) :| "Scan.setBits" &&
        Prop(bySetBits.toOption.forall(o => o.scanned == zoneScanned && o.zonesSkipped == zoneSkipped)) :| "zone counts" &&
        Prop(same(Try((0 until n).filter(f(_))), evalRows(p, tab, 0 until n))) :| "apply"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1000)
      .withInitialSeed(Seed(20231L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
  }

  /** A row mask over the rows of `t`. */
  private def bm(xs: Int*): RowMask = {
    val m = new RowMask(t.numRows); xs.foreach(x => m.add(x.toLong, "t.__rid")); m
  }

  /** ScanSJ as a zone loop: every zone holding a set bit is walked row by
    * row, testing each row against the bitmask; the rest are skipped. */
  private def zoneLoop(numRows: Int, combined: RowMask): (Seq[Int], Long, Long) = {
    val zones = Inspect.zones(combined)
    val zs = RowMask.ZoneSize
    val nZones = RowMask.zonesOf(numRows)
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
    // 3000 rows: zones [0, 1024), [1024, 2048) and the partial [2048, 3000)
    val n = 3000
    def of(xs: Int*): RowMask = { val m = new RowMask(n); xs.foreach(x => m.add(x.toLong, "r.__rid")); m }
    val cases = Seq(
      "bits in a few zones"      -> of(1, 2, 1023, 2048),
      "one bit per zone"         -> of(0, 1024, 2999),
      "zone edges"               -> of(1023, 1024, 2047),
      "last, partial zone only"  -> of(2048, 2999),
      "every row"                -> of(0 until n: _*),
      "empty bitmask"            -> of())
    for ((name, b) <- cases) {
      val out = Scan.setBits(n, b, Scan.NoPred)
      val (rows, scanned, skipped) = zoneLoop(n, b)
      assert(out.scanned == scanned, name)
      assert(out.zonesSkipped == skipped, name)
      assert(out.rows.toSeq == rows, name)
    }
    assert(Scan.setBits(n, of(2048, 2999), Scan.NoPred).zonesSkipped == 2)
    assert(Scan.setBits(n, of(), Scan.NoPred).zonesSkipped == 3)
  }

  test("set-bit ScanSJ tests the predicate on the rows it scans only") {
    val p = Filter(Pred.eqS("s", "a"), t)
    val out = Scan.setBits(t.numRows, bm(0, 2, 3, 5, 6), p)
    assert(out.rows.toSeq == Seq(2, 5))
    assert(out.scanned == 5)
    // the incomparable test fails on any non-null row it is given
    val failing = Filter(OrP(Seq(Pred.eqS("s", "a"), Cmp("s", OpLt, LL(3)))), t)
    assert(Scan.setBits(t.numRows, bm(0, 2, 5, 6), failing).rows.toSeq == Seq(2, 5))
    intercept[RuntimeException](Scan.setBits(t.numRows, bm(0, 2, 3), failing))
  }

  test("hash join pairs equal keys in probe order, then build order") {
    val rel = Rel.leaf("a", t, Array.range(0, t.numRows))
    val (li, ri) = Join.hash(Seq(rel.col("a", "l")), rel.size, Seq(rel.col("a", "l")), rel.size)
    val want = for (r <- 0 until 7; l <- 0 until 7 if t.col("l").any(l) == t.col("l").any(r)) yield (l, r)
    assert(li.toSeq.zip(ri.toSeq) == want)
  }

  test("a join on a non-long key fails, naming the column") {
    val rel = Rel.leaf("a", t, Array.range(0, t.numRows))
    val (l, s, d) = (rel.col("a", "l"), rel.col("a", "s"), rel.col("a", "d"))
    def fails(body: => Any, col: String): Unit = {
      val e = intercept[IllegalArgumentException](body)
      assert(e.getMessage.contains(s"$col: join keys must be long columns"), e.getMessage)
    }
    fails(Join.hash(Seq(s), rel.size, Seq(l), rel.size), "t.s")
    fails(Join.hash(Seq(l), rel.size, Seq(d), rel.size), "t.d")
    fails(Join.hash(Seq(l, s), rel.size, Seq(l, l), rel.size), "t.s")
    fails(Join.eq(l, d), "t.d")
  }

  test("Join.where keeps the pairs on which every condition holds, in order") {
    val (li, ri) = (Array(0, 1, 2, 3, 4), Array(4, 3, 2, 1, 0))
    val (l0, r0) = Join.where(li, ri, Nil)
    assert((l0 eq li) && (r0 eq ri))
    val even: (Int, Int) => Boolean = (l, _) => l % 2 == 0
    val small: (Int, Int) => Boolean = (_, r) => r < 3
    val (lo, ro) = Join.where(li, ri, Seq(even, small))
    assert(lo.toSeq == Seq(2, 4) && ro.toSeq == Seq(2, 0))
  }

  test("a dense __rid build key probes by direct address") {
    val rel = Rel.leaf("a", t, Array(6, 2, 2, 0))
    val ht = new LongMultiMap(rel.col("a", "__rid"), rel.size, 0)
    assert(ht.addressing == LongMultiMap.Ranged)
    assert(ht.first(2) == 1 && ht.next(1) == 2 && ht.next(2) == -1)
    assert(ht.first(6) == 0 && ht.first(5) == -1 && ht.first(-1) == -1 && ht.first(7) == -1)
  }

  test("a tiny __rid build over a large table hashes, with the dense path's pairs") {
    // The last build RID is far from the others and matches no probe key.
    val ids = Array(5, 2, 5, 1 << 16)
    val probe = new ColRef("p.l", Array.range(0, 6), LongCol(Array(5L, -1L, 2L, 7L, 5L, 1L << 40)), 6)
    val build = new ColRef("a.__rid", ids, null, (1 << 16) + 1)
    def pairs(ht: LongMultiMap) = { val (li, ri) = ht.pairs(probe, 6); (ht.addressing, li.toSeq.zip(ri.toSeq)) }
    val (small, dense) = pairs(new LongMultiMap(build, ids.length, Long.MinValue, Long.MaxValue, (1L << 16) + 1))
    val (large, hashed) = pairs(new LongMultiMap(build, ids.length, 6))
    assert(small == LongMultiMap.Ranged && large == LongMultiMap.Hashed)
    assert(hashed == dense)
    assert(dense == Seq((0, 0), (2, 0), (1, 2), (0, 4), (2, 4)))
    val (li, ri) = Join.hash(Seq(build), ids.length, Seq(probe), 6)
    assert(li.toSeq.zip(ri.toSeq) == dense)
  }

  private def longRef(xs: Array[Long]) = new ColRef("x.k", Array.range(0, xs.length), LongCol(xs), xs.length)

  test("range addressing: below, above, an empty build and a build spanning every long") {
    val ht = new LongMultiMap(longRef(Array(-3L, -1L, -3L, 4L)), 4, 1)
    assert(ht.addressing == LongMultiMap.Ranged)
    assert(Seq(-4L, -3L, -2L, -1L, 4L, 5L, Long.MinValue, Long.MaxValue).map(ht.first) ==
      Seq(-1, 0, -1, 1, 3, -1, -1, -1))
    assert(ht.next(0) == 2 && ht.next(2) == -1)
    val empty = new LongMultiMap(longRef(Array.empty[Long]), 0, 10)
    assert(empty.addressing == LongMultiMap.Ranged && empty.first(0L) == -1 && empty.first(Long.MinValue) == -1)
    val ends = new LongMultiMap(longRef(Array(Long.MaxValue, 0L, Long.MinValue)), 3, Int.MaxValue)
    assert(ends.addressing == LongMultiMap.Hashed)
    assert(Seq(Long.MinValue, 0L, Long.MaxValue, -1L).map(ends.first) == Seq(2, 1, 0, -1))
  }

  /** A join's two sides: the build over its first `bn` rows, the probe
    * over its first `pn` rows. */
  private final class JoinCase(val build: ColRef, val bn: Int, val probe: ColRef, val pn: Int) {
    /** The nested loop's pairs, in probe order and then build order. */
    def want: Seq[(Int, Int)] =
      for (r <- 0 until pn; l <- 0 until bn if build.long(l) == probe.long(r)) yield (l, r)
  }

  private def pairsOf(ht: LongMultiMap, c: JoinCase): Seq[(Int, Int)] = {
    val (li, ri) = ht.pairs(c.probe, c.pn); li.toSeq.zip(ri.toSeq)
  }

  test("property: range-addressed and hashed builds give the nested loop's pairs") {
    // Every addressing mode (covered, range-tested, hashed) and an empty build.
    import LongMultiMap.{Covered, Hashed, Ranged}
    // Value keys in a narrow window above a base, a probe column whose
    // domain reaches past the build keys (and holds -1, or both ends of the
    // longs, whose span overflows), read through a random row vector.
    val base = Gen.oneOf(Gen.const(0L), Gen.const(-1L), Gen.const(Long.MinValue),
      Gen.const(Long.MaxValue - 40), Gen.const(1L << 40), Gen.choose(-1000L, 1000L))
    val values: Gen[JoinCase] = for {
      b       <- base
      bOffs   <- Gen.listOf(Gen.choose(0L, 40L))
      pOffs   <- Gen.nonEmptyListOf(Gen.choose(-45L, 45L))
      pExtras <- Gen.frequency(3 -> Gen.const(Nil), 1 -> Gen.someOf(-1L, 0L, Long.MinValue, Long.MaxValue))
      ids     <- Gen.listOf(Gen.choose(0, pOffs.length + pExtras.length - 1))
    } yield {
      val pcol = (pOffs.map(b + _) ++ pExtras).toArray
      new JoinCase(longRef(bOffs.map(b + _).toArray), bOffs.length,
        new ColRef("p.k", ids.toArray, LongCol(pcol), pcol.length), ids.length)
    }
    // A rid_<fk> build (-1 dangling) probed by `__rid`, as a FK-PK RID join.
    val rids: Gen[JoinCase] = for {
      rows <- Gen.choose(1, 60)
      fks  <- Gen.listOf(Gen.choose(-1L, rows - 1L))
      ids  <- Gen.listOf(Gen.choose(0, rows - 1))
    } yield new JoinCase(new ColRef("f.rid_p", Array.range(0, fks.length), LongCol(fks.toArray), fks.length),
      fks.length, new ColRef("p.__rid", ids.toArray, null, rows), ids.length)
    // SJoinIdxM: the probe side's `__rid`s as the build, the P2 RIDs a CSR
    // walk read as the probe, both over the same table.
    val merge: Gen[JoinCase] = for {
      rows <- Gen.choose(1, 60)
      kept <- Gen.listOf(Gen.choose(0, rows - 1)).map(_.distinct.sorted)
      os   <- Gen.listOf(Gen.choose(0, rows - 1))
    } yield new JoinCase(new ColRef("p2.__rid", kept.toArray, null, rows), kept.length,
      new ColRef("p1->p2", os.toArray, null, rows), os.length)

    val seen = scala.collection.mutable.Map[String, Int]().withDefaultValue(0)
    val prop = Prop.forAll(Gen.frequency(3 -> values, 1 -> rids, 1 -> merge)) { c =>
      import c._
      val keys = (0 until bn).map(build.long)
      def span(lo: Long, hi: Long): BigInt = BigInt(hi) - BigInt(lo)
      val bSpan = if (bn == 0) BigInt(0) else span(keys.min, keys.max)
      val uSpan = if (bn == 0) BigInt(0) else span(keys.min.min(probe.lo), keys.max.max(probe.hi))
      val budget = LongMultiMap.DenseShare * (bn + pn)
      // the join's own choice, an index's (probe domain unknown), and the
      // covered and hashed modes forced through the slot budget
      val join = new LongMultiMap(build, bn, probe, pn)
      val ranged = new LongMultiMap(build, bn, pn)
      val covered = new LongMultiMap(build, bn, probe.lo, probe.hi, 1L << 16)
      val hashed = new LongMultiMap(build, bn, probe.lo, probe.hi, 0L)
      val wantJoin = if (bn > 0 && uSpan < budget) Covered else if (bn == 0 || bSpan < budget) Ranged else Hashed
      seen(if (bn == 0) "empty" else s"${join.addressing}") += 1
      if (bn > 0 && uSpan > Long.MaxValue) seen("overflow") += 1
      Prop(join.addressing == wantJoin) :| s"join addressing ${join.addressing}" &&
        Prop(covered.addressing == (if (bn > 0 && uSpan < (1L << 16)) Covered else if (bn == 0 || bSpan < (1L << 16)) Ranged else Hashed)) :| "covered" &&
        Prop(ranged.addressing == (if (bn == 0 || bSpan < budget) Ranged else Hashed)) :| "ranged" &&
        Prop(hashed.addressing == (if (bn == 0) Ranged else Hashed)) :| "hashed" &&
        Prop(Seq(join, covered, ranged, hashed).forall(pairsOf(_, c) == want)) :| "pairs" &&
        Prop({ val (li, ri) = Join.hash(Seq(build), bn, Seq(probe), pn); li.toSeq.zip(ri.toSeq) == want }) :| "Join.hash" &&
        Prop((0 until pn).forall { r =>
          val k = probe.long(r); Seq(join, ranged, hashed).forall(_.first(k) == covered.first(k)) }) :| "first"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1000)
      .withInitialSeed(Seed(20232L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
    for (k <- Seq("empty", "Covered", "Ranged", "Hashed", "overflow")) assert(seen(k) > 0, s"no $k case in $seen")
  }

  test("a covered probe over several batches gives the nested loop's pairs") {
    val rnd = new scala.util.Random(7)
    val pcol = Array.fill(3000)(rnd.nextInt(50).toLong)
    val probe = new ColRef("p.k", Array.tabulate(2900)(i => (i * 7) % 3000), LongCol(pcol), 3000)
    val build = longRef(Array.fill(100)(10L + rnd.nextInt(30)))
    val ht = new LongMultiMap(build, 100, probe, 2900)
    assert(ht.addressing == LongMultiMap.Covered)
    assert(pairsOf(ht, new JoinCase(build, 100, probe, 2900)) == new JoinCase(build, 100, probe, 2900).want)
  }

  test("an empty build gives no pairs without reading a probe key") {
    // the probe's row ids lie outside its column: any read would fail
    val probe = new ColRef("p.k", Array(7, 100), LongCol(Array(1L, 2L)), 2)
    for (ht <- Seq(new LongMultiMap(longRef(Array.empty[Long]), 0, probe, 2),
                   new LongMultiMap(longRef(Array.empty[Long]), 0, 2)))
      assert(ht.pairs(probe, 2) match { case (li, ri) => li.isEmpty && ri.isEmpty })
    intercept[IndexOutOfBoundsException](new LongMultiMap(longRef(Array(1L)), 1, probe, 2).pairs(probe, 2))
  }

  test("a covered probe key outside its column's domain fails instead of reading another key's rows") {
    val a = Array(0L, 3L, 5L)
    val probe = new ColRef("p.k", Array(0, 1, 2), LongCol(a), 3) // domain [0, 5]
    val ht = new LongMultiMap(longRef(Array(3L, 5L)), 2, probe, 3)
    assert(ht.addressing == LongMultiMap.Covered)
    assert(pairsOf(ht, new JoinCase(longRef(Array(3L, 5L)), 2, probe, 3)) == Seq((0, 1), (1, 2)))
    a(0) = 6L // one past the slots
    intercept[IndexOutOfBoundsException](ht.pairs(probe, 3))
    a(0) = 3L + (1L << 32) // would alias slot 3 as an int
    intercept[ArithmeticException](ht.pairs(probe, 3))
    a(0) = -1L // below the slots
    intercept[IndexOutOfBoundsException](ht.pairs(probe, 3))
    // a row-id probe past the rows it claims fails too
    val rid = new ColRef("r.__rid", Array(0, 2), null, 3)
    val ridMap = new LongMultiMap(new ColRef("b.__rid", Array(1, 2), null, 3), 2, rid, 2)
    assert(ridMap.addressing == LongMultiMap.Covered)
    intercept[IndexOutOfBoundsException](ridMap.pairs(new ColRef("r.__rid", Array(0, 9), null, 3), 2))
    // a probe whose own domain reaches past the slots is range-tested
    val wide = new ColRef("q.k", Array(0, 1), LongCol(Array(3L, 1L << 40)), 2)
    assert(pairsOf(ht, new JoinCase(longRef(Array(3L, 5L)), 2, wide, 2)) == Seq((0, 0)))
  }

  test("a column's domain: a long column's min and max, row ids' [0, rows)") {
    val c = new ColRef("x.k", Array(1), LongCol(Array(4L, -2L, 9L)), 3)
    assert((c.lo, c.hi) == ((-2L, 9L))) // the whole column, not only the rows read
    val empty = new ColRef("x.k", Array.empty, LongCol(Array.empty), 0)
    assert(empty.lo > empty.hi)
    val rid = new ColRef("x.__rid", Array(3), null, 5)
    assert((rid.lo, rid.hi) == ((0L, 4L)))
    assert(Rel.leaf("a", t, Array(0)).col("a", "__rid").hi == t.numRows - 1L)
    val s = Rel.leaf("a", t, Array(0)).col("a", "s")
    assert((s.lo, s.hi) == ((Long.MinValue, Long.MaxValue)))
  }

  test("an unfiltered scan keeps its table's identity vector, which no scan writes") {
    val all = Scan.all(t, Scan.NoPred)
    assert((all.rows eq t.allRows) && all.scanned == t.numRows)
    val f = Filter(Cmp("l", OpGe, LL(2L)), t)
    assert(Scan.all(t, f).rows.toSeq == Seq(2, 3, 4, 5, 6))
    assert(Scan.all(t, Filter(AndP(Nil), t)).rows.toSeq == (0 until t.numRows))
    assert(t.allRows.toSeq == (0 until t.numRows))
  }

  test("an EXTEND-style value-index lookup: keys outside the build's range and -1") {
    // a narrow FK column (range-addressed) and `t.l`, whose span hashes
    val fk = new TableData("e", IndexedSeq("k"), IndexedSeq(LongCol(Array(3L, 1L, 3L, 0L, 1L, 3L))), 6)
    val (ranged, hashed) = (fk.index("k"), t.index("l"))
    assert(ranged.addressing == LongMultiMap.Ranged && hashed.addressing == LongMultiMap.Hashed)
    assert(fk.index("k") eq ranged) // built once per column
    def extend(idx: LongMultiMap, k: Long): Seq[Int] =
      Iterator.iterate(idx.first(k))(idx.next).takeWhile(_ >= 0).toSeq
    for (k <- Seq(-1L, 0L, 3L, 4L, 1000L, Long.MinValue, Long.MaxValue))
      assert(extend(ranged, k) == ranged.rowsOf(k).toSeq, s"key $k")
    assert(ranged.rowsOf(3L).toSeq == Seq(0, 2, 5))
    assert(Seq(-1L, 4L, 1000L, Long.MinValue, Long.MaxValue).forall(ranged.rowsOf(_).isEmpty))
    // -1 is an ordinary key: it finds the build rows that hold -1, and only those
    assert(hashed.rowsOf(-1L).toSeq == Seq(0) && extend(hashed, -1L) == Seq(0))
    assert(hashed.rowsOf(2L).toSeq == Seq(2, 5))
    assert(Seq(1L, 3L, Long.MinValue).forall(k => hashed.first(k) == -1))
    intercept[IllegalArgumentException](t.index("s"))
  }

  test("bitmask build fails loudly on a RID above Int.MaxValue, naming the column") {
    val rel = Rel.leaf("a", t, Array(0, 1, 2))
    assert(rel.col("a", "l").mask(t.numRows).toArray.toSeq == Seq(0, 2)) // -1 (dangling) skipped
    val e = intercept[IllegalArgumentException](Rel.leaf("a", t, Array(4)).col("a", "l").mask(t.numRows))
    assert(e.getMessage.contains("t.l"))
  }

  test("a row mask cannot hold a RID at or above numRows or below -1: the build fails, naming the column") {
    // The set-bit scan cases whose bits lay past the table's 7 rows, or
    // below 0, can no longer be built: a table-sized mask has no such bit.
    val col = LongCol(Array(2L, 7L, 8L, 12L, 1000L, 9L, 40L, 3L, -5L))
    for ((name, rows) <- Seq(
        "bits at or above numRows" -> Array(0, 1, 2, 3, 4),
        "only a bit past the end"  -> Array(1),
        "only bits in later zones" -> Array(5, 6),
        "a negative bit"           -> Array(7, 8))) {
      val ref = new ColRef("t.rid_x", rows, col, col.size)
      val e = intercept[IllegalArgumentException](ref.mask(t.numRows))
      assert(e.getMessage.contains("t.rid_x"), name)
    }
  }
}
