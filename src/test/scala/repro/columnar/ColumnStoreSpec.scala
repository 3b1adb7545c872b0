package repro.columnar

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.core.{Pred, PredReference}

/** Column store loading and the value (adjacency-analogue) index. */
class ColumnStoreSpec extends SparkSpec {
  import spark.implicits._

  test("load preserves types: long, double, string") {
    val df = Seq((1L, 2.5, "x"), (2L, 3.5, "y")).toDF("l", "d", "s")
    val st = new ColumnStore
    val t = st.load("t", df)
    assert(t.numRows == 2)
    assert(t.col("l").isInstanceOf[LongCol])
    assert(t.col("d").isInstanceOf[DoubleCol])
    assert(t.col("s").isInstanceOf[StringCol])
    assert(t.col("l").any(1) == 2L)
    assert(t.col("d").any(0) == 2.5)
    assert(t.col("s").any(1) == "y")
  }

  test("string columns carry their dictionary codes; a null's code is -1") {
    val df = Seq(Some("x"), None, Some("y"), Some("x"), None).toDF("s")
    val StringCol(a, codes, dict) = new ColumnStore().load("t", df).col("s")
    assert(a.toSeq == Seq("x", null, "y", "x", null))
    assert(codes.toSeq == Seq(0, -1, 1, 0, -1))
    assert(dict.toSeq == Seq("x", "y"))
    assert(a.indices.forall(i => if (a(i) == null) codes(i) == -1 else dict(codes(i)) == a(i)))
  }

  test("the dictionary is sorted: codes keep the values' code-point order") {
    def lt(x: String, y: String) = PredReference.compareStrings(x, y) < 0
    def ordered(a: Array[String]): Boolean = {
      val StringCol(_, codes, dict) = StringCol(a)
      val rows = a.indices.filter(a(_) != null)
      dict.indices.drop(1).forall(k => lt(dict(k - 1), dict(k))) &&
        a.indices.forall(i => if (a(i) == null) codes(i) == -1 else dict(codes(i)) == a(i)) &&
        rows.forall(i => rows.forall(j => (codes(i) < codes(j)) == lt(a(i), a(j))))
    }
    val loaded = new ColumnStore().load("t",
      Seq(Some("pear"), None, Some("Apple"), Some(""), Some("apple"), Some("pear"), Some("\u00e9")).toDF("s"))
    val StringCol(a, _, dict) = loaded.col("s")
    assert(dict.toSeq == Seq("", "Apple", "apple", "pear", "\u00e9"))
    assert(ordered(a))
    // random columns: short strings over a small alphabet (shared prefixes,
    // the empty string, repeats, case, a character above U+FFFF) and nulls
    val gen = Gen.listOf(Gen.frequency(1 -> Gen.const(null: String),
      6 -> Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.oneOf("a", "b", "B", "\u00e9", "～", "", "😀"))).map(_.mkString)))
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20232L)).withWorkers(1), Prop.forAll(gen)(xs => ordered(xs.toArray)))
    assert(res.passed, res.status.toString)
  }

  // "～" is U+FF5E and "😀" U+1F600, a surrogate pair in UTF-16: by code
  // point (Spark, DuckDB) "😀" sorts above "～", by UTF-16 unit below it.
  private val wide = Seq("a", "～", "😀", "", "b")

  test("the dictionary is in Spark's ORDER BY order, beyond U+FFFF too") {
    val df = wide.toDF("s")
    val StringCol(_, _, dict) = new ColumnStore().load("t", df).col("s")
    assert(dict.toSeq == df.orderBy("s").collect().map(_.getString(0)).toSeq)
  }

  test("a serial string range keeps what Spark's comparison keeps, beyond U+FFFF too") {
    val df = wide.toDF("s")
    val t = new ColumnStore().load("t", df)
    val StringCol(a, _, _) = t.col("s")
    for (lit <- wide :+ "\u00e9") {
      val p = Pred.ltS("s", lit)
      val serial = Scan.all(t, Filter(p, t)).rows.map(a(_)).toSeq
      val viaSpark = df.filter(Pred.toColumn(p, "")).collect().map(_.getString(0)).toSeq
      assert(serial.sorted == viaSpark.sorted, lit)
    }
  }

  test("integers are widened to long columns") {
    val df = Seq((1, 2), (3, 4)).toDF("a", "b")
    val t = new ColumnStore().load("t", df)
    assert(t.col("a").isInstanceOf[LongCol])
    assert(t.col("a").any(1) == 3L)
  }

  test("__rid must be the row position, and is not stored") {
    val t = new ColumnStore().load("t", Seq((7L, 0L), (5L, 1L), (6L, 2L)).toDF("v", "__rid"))
    assert((0 until 3).map(t.col("v").any) == Seq(7L, 5L, 6L))
    assert(t.colNames == Seq("v"))
    intercept[RuntimeException](t.col("__rid"))
    val e = intercept[IllegalArgumentException](
      new ColumnStore().load("shuffled", Seq((2L, 0L), (0L, 2L), (1L, 1L)).toDF("v", "__rid")))
    assert(e.getMessage.contains("shuffled: row 1 holds __rid 2"))
  }

  test("value index maps value -> all row positions") {
    val df = Seq(5L, 7L, 5L, 9L).toDF("k")
    val t = new ColumnStore().load("t", df)
    val idx = t.index("k")
    assert(idx.rowsOf(5L).toSeq == Seq(0, 2))
    assert(idx.rowsOf(7L).toSeq == Seq(1))
    assert(idx.rowsOf(8L).isEmpty)
  }

  test("unknown column access fails loudly") {
    val t = new ColumnStore().load("t", Seq(1L).toDF("x"))
    intercept[RuntimeException](t.col("nope"))
  }
}
