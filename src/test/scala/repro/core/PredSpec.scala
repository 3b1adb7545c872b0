package repro.core

import org.scalacheck.{Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pred._

/** Predicate AST: evaluation semantics and SQL generation. */
class PredSpec extends AnyFunSuite {

  /** Run a ScalaCheck property and assert it holds (scalatest bridge). */
  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  private def row(m: (String, Any)*): String => Any = m.toMap

  test("numeric comparisons") {
    assert(PredReference.eval(eqL("x", 5), row("x" -> 5L)))
    assert(!PredReference.eval(eqL("x", 5), row("x" -> 6L)))
    assert(PredReference.eval(lt("x", 5), row("x" -> 4L)))
    assert(!PredReference.eval(lt("x", 5), row("x" -> 5L)))
    assert(PredReference.eval(le("x", 5), row("x" -> 5L)))
    assert(PredReference.eval(gt("x", 5), row("x" -> 6L)))
    assert(PredReference.eval(ge("x", 5), row("x" -> 5L)))
  }

  test("double vs long comparisons coerce") {
    assert(PredReference.eval(Cmp("x", OpLt, LD(4.5)), row("x" -> 4L)))
    assert(PredReference.eval(Cmp("x", OpGt, LL(4)), row("x" -> 4.5)))
  }

  test("string comparisons are lexicographic") {
    assert(PredReference.eval(geS("s", "B"), row("s" -> "Bob")))
    assert(!PredReference.eval(ltS("s", "B"), row("s" -> "Bob")))
    assert(PredReference.eval(eqS("s", "x"), row("s" -> "x")))
    assert(PredReference.eval(neS("s", "x"), row("s" -> "y")))
  }

  test("in-list, and, or") {
    assert(PredReference.eval(inS("s", "a", "b"), row("s" -> "b")))
    assert(!PredReference.eval(inS("s", "a", "b"), row("s" -> "c")))
    assert(PredReference.eval(inL("x", 1, 2), row("x" -> 2L)))
    assert(PredReference.eval(and(eqL("x", 1), eqS("s", "a")), row("x" -> 1L, "s" -> "a")))
    assert(!PredReference.eval(and(eqL("x", 1), eqS("s", "b")), row("x" -> 1L, "s" -> "a")))
    assert(PredReference.eval(or(eqL("x", 9), eqS("s", "a")), row("x" -> 1L, "s" -> "a")))
  }

  test("between is inclusive-lo exclusive-hi") {
    assert(PredReference.eval(between("x", 3, 5), row("x" -> 3L)))
    assert(PredReference.eval(between("x", 3, 5), row("x" -> 4L)))
    assert(!PredReference.eval(between("x", 3, 5), row("x" -> 5L)))
  }

  test("null never matches") {
    assert(!PredReference.eval(eqS("s", "a"), row("s" -> null)))
  }

  test("SQL generation compares the typed oracle columns uncast") {
    assert(Pred.toSql(eqL("x", 5), "t") == "t.x = 5")
    assert(Pred.toSql(Cmp("x", OpLt, LD(4.5)), "t") == "t.x < 4.5")
    assert(Pred.toSql(eqS("s", "a"), "t") == "t.s = 'a'")
    assert(Pred.toSql(eqS("s", "O'Neil"), "t") == "t.s = 'O''Neil'")
    assert(Pred.toSql(inL("x", 1, 2), "t") == "t.x IN (1, 2)")
    assert(Pred.toSql(or(eqL("x", 1), inS("s", "a", "b")), "t") == "(t.x = 1 OR t.s IN ('a', 'b'))")
    assert(Pred.toSql(and(eqL("x", 1), eqL("y", 2)), "t") == "(t.x = 1 AND t.y = 2)")
  }

  test("property: long comparison agrees with Ordering[Long]") {
    check(Prop.forAll { (x0: Int, y0: Int) =>
      val (x, y) = (x0.toLong, y0.toLong)
      PredReference.eval(Cmp("c", OpLt, LL(y)), row("c" -> x)) == (x < y) &&
        PredReference.eval(Cmp("c", OpGe, LL(y)), row("c" -> x)) == (x >= y) &&
        PredReference.eval(Cmp("c", OpEq, LL(y)), row("c" -> x)) == (x == y)
    })
  }

  test("property: in-list equals set membership") {
    check(Prop.forAll { (x: Long, ys: List[Long]) =>
      ys.isEmpty ||
        PredReference.eval(InList("c", ys.map(LL(_))), row("c" -> x)) == ys.contains(x)
    })
  }

  test("cols collects every referenced column") {
    assert(and(eqL("x", 1), or(eqS("y", "a"), eqS("z", "b"))).cols == Set("x", "y", "z"))
  }
}
