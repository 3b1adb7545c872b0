package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{DoubleType, FloatType, DecimalType}

/** A table occurrence in a query: `table AS alias`, with an optional filter. */
final case class TableRef(alias: String, table: String, pred: Option[Pred] = None) {
  /** The key of a primary-key point lookup: the long literal of a top-level
    * equality on primary-key column `pk`, alone or among conjuncts. */
  def pointKey(pk: String): Option[Long] = pred.flatMap {
    case Cmp(`pk`, OpEq, LL(v)) => Some(v)
    case AndP(ps)               => ps.collectFirst { case Cmp(`pk`, OpEq, LL(v)) => v }
    case _                      => None
  }
}

/** A single-column equality join predicate between two aliases. */
final case class JoinPred(a: String, acol: String, b: String, bcol: String) {
  def touches(alias: String): Boolean = alias == a || alias == b
  /** The (alias, col) pair on the other end of `alias`. */
  def other(alias: String): (String, String) =
    if (alias == a) (b, bcol) else (a, acol)
  def colOf(alias: String): String = if (alias == a) acol else bcol
}

/** Join tree: leaves are aliases; inner nodes are binary joins. The left
  * subtree is by convention the hash-join build side (the paper pins join
  * orders for both systems, see §7.1, so we do the same).
  */
sealed trait Plan { def aliases: Seq[String] }
final case class Lf(alias: String) extends Plan { val aliases: Seq[String] = Seq(alias) }
final case class Jn(l: Plan, r: Plan) extends Plan {
  lazy val aliases: Seq[String] = l.aliases ++ r.aliases
}

/** An output column `alias.col`, surfaced as `alias_col` in every engine. */
final case class OutCol(alias: String, col: String) { def name: String = s"${alias}_$col" }

/** Aggregate expression over an output column (or `count(*)`). */
final case class AggExpr(fn: String, of: Option[OutCol], as: String) {
  require(Set("sum", "min", "max", "avg", "count", "countstar")(fn), s"bad agg fn $fn")
}
final case class AggSpec(groupBy: Seq[OutCol], aggs: Seq[AggExpr])

/** A select-project-join(+aggregate) query — the shared IR compiled to every
  * engine (Spark vanilla, Spark+sip, serial columnar, GraphflowDB simulator)
  * and to DuckDB SQL for the correctness oracle.
  *
  * @param planOpt  pinned join tree; defaults to left-deep in `refs` order
  * @param gfOrder  left-deep alias order for the INLJ graph simulator
  */
final case class Query(
    name: String,
    refs: Seq[TableRef],
    joins: Seq[JoinPred],
    out: Seq[OutCol],
    agg: Option[AggSpec] = None,
    planOpt: Option[Plan] = None,
    gfOrder: Option[Seq[String]] = None,
) {
  require(refs.map(_.alias).distinct.size == refs.size, s"$name: duplicate aliases")

  def ref(alias: String): TableRef = refs.find(_.alias == alias).getOrElse(
    sys.error(s"$name: unknown alias $alias"))

  def plan: Plan = planOpt.getOrElse(QueryIR.leftDeep(refs.map(_.alias)))

  /** Bare columns of `alias` the query reads besides its join columns: the
    * output, group-by, aggregate and filter columns. */
  def readCols(alias: String): Seq[String] = {
    val cols = out ++ agg.toSeq.flatMap(a => a.groupBy ++ a.aggs.flatMap(_.of))
    (cols.filter(_.alias == alias).map(_.col) ++ ref(alias).pred.toSeq.flatMap(_.cols)).distinct
  }

  /** Bare columns of `alias` needed anywhere (output, filter, join). */
  def neededCols(alias: String): Seq[String] =
    (readCols(alias) ++ joins.filter(_.touches(alias)).map(_.colOf(alias))).distinct
}

object QueryIR {
  /** Whether column `c` of `df` is floating-point (double, float or
    * decimal). [[SparkExec]] and the oracle's SQL sum and average such a
    * column over integer cents, so that the result does not depend on
    * summation order. */
  def isFloatCol(df: DataFrame, c: String): Boolean =
    df.schema.fields.find(_.name == c).exists(f => f.dataType match {
      case DoubleType | FloatType | _: DecimalType => true
      case _                                       => false
    })

  def leftDeep(aliases: Seq[String]): Plan =
    aliases.tail.foldLeft[Plan](Lf(aliases.head))((acc, a) => Jn(acc, Lf(a)))

  /** DuckDB SQL for the oracle, whose tables carry the Spark schema's
    * types; `schemas` maps table name -> DataFrame (used to decide which
    * aggregated columns are floating-point).
    */
  def toSql(q: Query, schemas: Map[String, DataFrame]): String = {
    def ref(oc: OutCol): String = s"${oc.alias}.${oc.col}"
    def aggSql(a: AggExpr): String = a.fn match {
      case "countstar" => s"COUNT(*) AS ${a.as}"
      case fn =>
        val oc = a.of.get
        // match SparkExec: floating sums/avgs go through exact integer cents
        // (order-independent).
        if ((fn == "sum" || fn == "avg") && isFloatCol(schemas(q.ref(oc.alias).table), oc.col))
          s"CAST(ROUND(${fn.toUpperCase}(ROUND(${ref(oc)} * 100, 0)), 0) AS BIGINT) AS ${a.as}"
        else if (fn == "avg") s"ROUND(AVG(${ref(oc)}), 1) AS ${a.as}"
        else s"${fn.toUpperCase}(${ref(oc)}) AS ${a.as}"
    }

    val select = q.agg match {
      case Some(a) => (a.groupBy.map(oc => s"${ref(oc)} AS ${oc.name}") ++ a.aggs.map(aggSql)).mkString(", ")
      case None    => q.out.map(oc => s"${ref(oc)} AS ${oc.name}").mkString(", ")
    }
    val from = q.refs.map(r => s"${r.table} AS ${r.alias}").mkString(", ")
    val conds =
      q.joins.map(j => s"${j.a}.${j.acol} = ${j.b}.${j.bcol}") ++
        q.refs.flatMap(r => r.pred.map(Pred.toSql(_, r.alias)))
    val where = if (conds.isEmpty) "" else conds.mkString(" WHERE ", " AND ", "")
    val group = q.agg match {
      case Some(a) if a.groupBy.nonEmpty =>
        " GROUP BY " + a.groupBy.map(ref).mkString(", ")
      case _ => ""
    }
    s"SELECT $select FROM $from$where$group"
  }

  /** Enumerate connected left-deep join orders for the plan-spectrum study
    * (Table 7). Deterministic; capped to keep Spark wall-clock bounded.
    */
  def enumerateOrders(q: Query, cap: Int): Seq[Seq[String]] = {
    val aliases = q.refs.map(_.alias)
    val adj: Map[String, Set[String]] = aliases.map { a =>
      a -> q.joins.filter(_.touches(a)).map(_.other(a)._1).toSet
    }.toMap
    val acc = scala.collection.mutable.ArrayBuffer[Seq[String]]()
    def rec(prefix: Vector[String], rest: Set[String]): Unit = {
      if (acc.size >= cap) return
      if (rest.isEmpty) { acc += prefix; return }
      val candidates =
        if (prefix.isEmpty) aliases.filter(rest)
        else aliases.filter(a => rest(a) && prefix.exists(p => adj(a)(p)))
      candidates.foreach(a => rec(prefix :+ a, rest - a))
    }
    rec(Vector.empty, aliases.toSet)
    acc.toSeq
  }
}
