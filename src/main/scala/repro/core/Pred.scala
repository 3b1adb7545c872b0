package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{col, lit}

/** Literal values usable in benchmark predicates.
  *
  * Kept to three runtime types (long, double, string) so the same literal can
  * be compiled to a Spark [[Column]], to DuckDB SQL over VARCHAR-typed oracle
  * tables (with explicit casts), and evaluated against the serial columnar
  * engine's arrays.
  */
sealed trait Lit {
  /** SQL literal text (DuckDB dialect). */
  def sql: String
  /** The raw JVM value for Spark `lit(...)` / columnar comparison. */
  def value: Any
}
final case class LL(v: Long) extends Lit { def sql = v.toString; def value: Any = v }
final case class LD(v: Double) extends Lit { def sql = v.toString; def value: Any = v }
final case class LS(v: String) extends Lit {
  def sql = "'" + v.replace("'", "''") + "'"
  def value: Any = v
}

/** Comparison operators supported by the predicate AST. */
sealed abstract class Op(val sym: String)
case object OpEq extends Op("=")
case object OpNe extends Op("<>")
case object OpLt extends Op("<")
case object OpLe extends Op("<=")
case object OpGt extends Op(">")
case object OpGe extends Op(">=")

/** A tiny predicate AST over the columns of a single table reference.
  *
  * Columns are referred to by their bare name; compilers receive the alias
  * prefix (every engine renames `alias.col` to `alias_col` so joins never see
  * ambiguous names).
  */
sealed trait Pred {
  /** Bare column names this predicate touches. */
  def cols: Set[String]
}
final case class Cmp(colName: String, op: Op, l: Lit) extends Pred {
  def cols: Set[String] = Set(colName)
}
final case class InList(colName: String, ls: Seq[Lit]) extends Pred {
  def cols: Set[String] = Set(colName)
}
final case class AndP(ps: Seq[Pred]) extends Pred {
  def cols: Set[String] = ps.flatMap(_.cols).toSet
}
final case class OrP(ps: Seq[Pred]) extends Pred {
  def cols: Set[String] = ps.flatMap(_.cols).toSet
}

object Pred {
  /** Convenience constructors used by the benchmark query definitions. */
  def eqL(c: String, v: Long): Pred = Cmp(c, OpEq, LL(v))
  def eqS(c: String, v: String): Pred = Cmp(c, OpEq, LS(v))
  def neS(c: String, v: String): Pred = Cmp(c, OpNe, LS(v))
  def lt(c: String, v: Long): Pred = Cmp(c, OpLt, LL(v))
  def le(c: String, v: Long): Pred = Cmp(c, OpLe, LL(v))
  def gt(c: String, v: Long): Pred = Cmp(c, OpGt, LL(v))
  def ge(c: String, v: Long): Pred = Cmp(c, OpGe, LL(v))
  def between(c: String, lo: Long, hi: Long): Pred = AndP(Seq(ge(c, lo), lt(c, hi)))
  def geS(c: String, v: String): Pred = Cmp(c, OpGe, LS(v))
  def gtS(c: String, v: String): Pred = Cmp(c, OpGt, LS(v))
  def ltS(c: String, v: String): Pred = Cmp(c, OpLt, LS(v))
  def leS(c: String, v: String): Pred = Cmp(c, OpLe, LS(v))
  def and(ps: Pred*): Pred = AndP(ps)
  def or(ps: Pred*): Pred = OrP(ps)
  def inS(c: String, vs: String*): Pred = InList(c, vs.map(LS(_)))
  def inL(c: String, vs: Long*): Pred = InList(c, vs.map(LL(_)))

  /** Compile to a Spark [[Column]]; `prefix` is `alias_` (already renamed). */
  def toColumn(p: Pred, prefix: String): Column = p match {
    case Cmp(c, op, l) =>
      val cc = col(prefix + c)
      op match {
        case OpEq => cc === lit(l.value)
        case OpNe => cc =!= lit(l.value)
        case OpLt => cc < lit(l.value)
        case OpLe => cc <= lit(l.value)
        case OpGt => cc > lit(l.value)
        case OpGe => cc >= lit(l.value)
      }
    case InList(c, ls) => col(prefix + c).isin(ls.map(_.value): _*)
    case AndP(ps)      => ps.map(toColumn(_, prefix)).reduce(_ && _)
    case OrP(ps)       => ps.map(toColumn(_, prefix)).reduce(_ || _)
  }

  /** SQL over the oracle's VARCHAR tables: numeric comparisons need casts. */
  def toSql(p: Pred, alias: String): String = p match {
    case Cmp(c, op, l) => s"${castRef(alias, c, l)} ${op.sym} ${l.sql}"
    case InList(c, ls) =>
      val l0 = ls.head
      s"${castRef(alias, c, l0)} IN (${ls.map(_.sql).mkString(", ")})"
    case AndP(ps) => ps.map(toSql(_, alias)).mkString("(", " AND ", ")")
    case OrP(ps)  => ps.map(toSql(_, alias)).mkString("(", " OR ", ")")
  }

  private def castRef(alias: String, c: String, l: Lit): String = l match {
    case _: LL => s"CAST($alias.$c AS BIGINT)"
    case _: LD => s"CAST($alias.$c AS DOUBLE)"
    case _: LS => s"$alias.$c"
  }
}
