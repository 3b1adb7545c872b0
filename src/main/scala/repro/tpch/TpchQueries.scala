package repro.tpch

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.core.Pred._
import scala.collection.immutable.ListMap

/** TPC-H-lite: the 22 queries reduced to their join/filter/aggregate core
  * over the SynthData schema (subqueries and multi-column arithmetic are
  * simplified — per-query notes in EXPERIMENTS.md). This benchmark is the
  * paper's §7.2.3 sanity check: predefined joins must neither help much nor
  * hurt, because the workload has no selective many-to-many joins.
  *
  * As in the paper, only the one-to-many PK-FK joins are predefined and no
  * RID indices are built, so GRainDB-mode uses RID-equality hash joins plus
  * forward sip only.
  */
object TpchQueries {

  val pks: ListMap[String, Seq[String]] = ListMap(
    "lineitem" -> Seq("l_orderkey", "l_partkey", "l_linenumber", "l_suppkey"),
    "orders" -> Seq("o_orderkey"), "customer" -> Seq("c_custkey"),
    "part" -> Seq("p_partkey"), "supplier" -> Seq("s_suppkey"),
    "nation" -> Seq("n_nationkey"), "region" -> Seq("r_regionkey"),
    "partsupp" -> Seq("ps_id"))

  val predefs: Seq[PredefJoin] = Seq(
    PredefJoin("lineitem", "l_orderkey", "orders", "o_orderkey"),
    PredefJoin("lineitem", "l_partkey", "part", "p_partkey"),
    PredefJoin("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    PredefJoin("orders", "o_custkey", "customer", "c_custkey"),
    PredefJoin("customer", "c_nationkey", "nation", "n_nationkey"),
    PredefJoin("supplier", "s_nationkey", "nation", "n_nationkey"),
    PredefJoin("nation", "n_regionkey", "region", "r_regionkey"),
    PredefJoin("partsupp", "ps_partkey", "part", "p_partkey"),
    PredefJoin("partsupp", "ps_suppkey", "supplier", "s_suppkey"))

  def catalog(spark: SparkSession, sf: Double): GrainCatalog =
    GrainCatalog.build(spark, Seq(
      "lineitem" -> SynthData.lineitem(spark, sf), "orders" -> SynthData.orders(spark, sf),
      "customer" -> SynthData.customer(spark, sf), "part" -> SynthData.part(spark, sf),
      "supplier" -> SynthData.supplier(spark, sf), "nation" -> SynthData.nation(spark),
      "region" -> SynthData.region(spark), "partsupp" -> SynthData.partsupp(spark, sf)), pks, predefs)

  private def oc(a: String, c: String) = OutCol(a, c)
  private def sum(a: String, c: String, as: String) = AggExpr("sum", Some(oc(a, c)), as)
  private def avg(a: String, c: String, as: String) = AggExpr("avg", Some(oc(a, c)), as)
  private def mn(a: String, c: String, as: String) = AggExpr("min", Some(oc(a, c)), as)
  private def cnt(as: String) = AggExpr("countstar", None, as)

  private def q(name: String, refs: Seq[TableRef], joins: Seq[JoinPred],
                groupBy: Seq[OutCol], aggs: Seq[AggExpr]): Query =
    Query(name, refs, joins, out = Seq.empty, agg = Some(AggSpec(groupBy, aggs)))

  val queries: Seq[Query] = Seq(
    q("Q1",
      Seq(TableRef("l", "lineitem", Some(leS("l_shipdate", "1998-09-02")))),
      Seq.empty,
      Seq(oc("l", "l_returnflag"), oc("l", "l_linestatus")),
      Seq(sum("l", "l_quantity", "sum_qty"), sum("l", "l_extendedprice", "sum_price"),
        avg("l", "l_quantity", "avg_qty"), cnt("count_order"))),

    q("Q2",
      Seq(TableRef("r", "region", Some(eqS("r_name", "EUROPE"))),
        TableRef("n", "nation"), TableRef("s", "supplier"),
        TableRef("ps", "partsupp"),
        TableRef("p", "part", Some(and(eqL("p_size", 15), eqS("p_type", "ECONOMY"))))),
      Seq(JoinPred("n", "n_regionkey", "r", "r_regionkey"),
        JoinPred("s", "s_nationkey", "n", "n_nationkey"),
        JoinPred("ps", "ps_suppkey", "s", "s_suppkey"),
        JoinPred("ps", "ps_partkey", "p", "p_partkey")),
      Seq.empty,
      Seq(mn("ps", "ps_supplycost", "min_cost"), mn("s", "s_name", "min_supp"))),

    q("Q3",
      Seq(TableRef("c", "customer", Some(eqS("c_mktsegment", "BUILDING"))),
        TableRef("o", "orders", Some(ltS("o_orderdate", "1995-03-15"))),
        TableRef("l", "lineitem", Some(gtS("l_shipdate", "1995-03-15")))),
      Seq(JoinPred("o", "o_custkey", "c", "c_custkey"),
        JoinPred("l", "l_orderkey", "o", "o_orderkey")),
      Seq(oc("o", "o_orderdate")),
      Seq(sum("l", "l_extendedprice", "revenue"))),

    q("Q4",
      Seq(TableRef("o", "orders", Some(and(geS("o_orderdate", "1993-07-01"),
        ltS("o_orderdate", "1993-10-01")))),
        TableRef("l", "lineitem", Some(eqS("l_returnflag", "R")))),
      Seq(JoinPred("l", "l_orderkey", "o", "o_orderkey")),
      Seq(oc("o", "o_orderpriority")),
      Seq(cnt("order_count"))),

    q("Q5",
      Seq(TableRef("r", "region", Some(eqS("r_name", "ASIA"))),
        TableRef("n", "nation"), TableRef("c", "customer"),
        TableRef("o", "orders", Some(and(geS("o_orderdate", "1994-01-01"),
          ltS("o_orderdate", "1995-01-01")))),
        TableRef("l", "lineitem"), TableRef("s", "supplier")),
      Seq(JoinPred("n", "n_regionkey", "r", "r_regionkey"),
        JoinPred("c", "c_nationkey", "n", "n_nationkey"),
        JoinPred("o", "o_custkey", "c", "c_custkey"),
        JoinPred("l", "l_orderkey", "o", "o_orderkey"),
        JoinPred("l", "l_suppkey", "s", "s_suppkey"),
        JoinPred("s", "s_nationkey", "n", "n_nationkey")),
      Seq(oc("n", "n_name")),
      Seq(sum("l", "l_extendedprice", "revenue"))),

    q("Q6",
      Seq(TableRef("l", "lineitem", Some(and(geS("l_shipdate", "1994-01-01"),
        ltS("l_shipdate", "1995-01-01"),
        Cmp("l_discount", OpGe, LD(0.05)), Cmp("l_discount", OpLe, LD(0.07)),
        Cmp("l_quantity", OpLt, LD(24)))))),
      Seq.empty, Seq.empty,
      Seq(sum("l", "l_extendedprice", "revenue"))),

    q("Q7",
      Seq(TableRef("n1", "nation", Some(eqS("n_name", "FRANCE"))),
        TableRef("s", "supplier"), TableRef("l", "lineitem"),
        TableRef("o", "orders"), TableRef("c", "customer"),
        TableRef("n2", "nation", Some(eqS("n_name", "GERMANY")))),
      Seq(JoinPred("s", "s_nationkey", "n1", "n_nationkey"),
        JoinPred("l", "l_suppkey", "s", "s_suppkey"),
        JoinPred("l", "l_orderkey", "o", "o_orderkey"),
        JoinPred("o", "o_custkey", "c", "c_custkey"),
        JoinPred("c", "c_nationkey", "n2", "n_nationkey")),
      Seq(oc("n1", "n_name"), oc("n2", "n_name")),
      Seq(sum("l", "l_extendedprice", "revenue"))),

    q("Q8",
      Seq(TableRef("r", "region", Some(eqS("r_name", "AMERICA"))),
        TableRef("n1", "nation"), TableRef("c", "customer"),
        TableRef("o", "orders", Some(and(geS("o_orderdate", "1995-01-01"),
          ltS("o_orderdate", "1996-12-31")))),
        TableRef("l", "lineitem"),
        TableRef("p", "part", Some(eqS("p_type", "ECONOMY"))),
        TableRef("s", "supplier"), TableRef("n2", "nation")),
      Seq(JoinPred("n1", "n_regionkey", "r", "r_regionkey"),
        JoinPred("c", "c_nationkey", "n1", "n_nationkey"),
        JoinPred("o", "o_custkey", "c", "c_custkey"),
        JoinPred("l", "l_orderkey", "o", "o_orderkey"),
        JoinPred("l", "l_partkey", "p", "p_partkey"),
        JoinPred("l", "l_suppkey", "s", "s_suppkey"),
        JoinPred("s", "s_nationkey", "n2", "n_nationkey")),
      Seq(oc("n2", "n_name")),
      Seq(sum("l", "l_extendedprice", "revenue"))),

    q("Q9",
      Seq(TableRef("p", "part", Some(eqS("p_type", "PROMO"))),
        TableRef("l", "lineitem"), TableRef("ps", "partsupp"),
        TableRef("s", "supplier"), TableRef("o", "orders"),
        TableRef("n", "nation")),
      Seq(JoinPred("l", "l_partkey", "p", "p_partkey"),
        JoinPred("ps", "ps_partkey", "p", "p_partkey"),
        JoinPred("ps", "ps_suppkey", "s", "s_suppkey"),
        JoinPred("l", "l_suppkey", "s", "s_suppkey"),
        JoinPred("l", "l_orderkey", "o", "o_orderkey"),
        JoinPred("s", "s_nationkey", "n", "n_nationkey")),
      Seq(oc("n", "n_name")),
      Seq(sum("ps", "ps_supplycost", "sum_cost"))),

    q("Q10",
      Seq(TableRef("o", "orders", Some(and(geS("o_orderdate", "1993-10-01"),
        ltS("o_orderdate", "1994-01-01")))),
        TableRef("c", "customer"),
        TableRef("l", "lineitem", Some(eqS("l_returnflag", "R"))),
        TableRef("n", "nation")),
      Seq(JoinPred("o", "o_custkey", "c", "c_custkey"),
        JoinPred("l", "l_orderkey", "o", "o_orderkey"),
        JoinPred("c", "c_nationkey", "n", "n_nationkey")),
      Seq(oc("n", "n_name")),
      Seq(sum("l", "l_extendedprice", "revenue"))),

    q("Q11",
      Seq(TableRef("n", "nation", Some(eqS("n_name", "GERMANY"))),
        TableRef("s", "supplier"), TableRef("ps", "partsupp")),
      Seq(JoinPred("s", "s_nationkey", "n", "n_nationkey"),
        JoinPred("ps", "ps_suppkey", "s", "s_suppkey")),
      Seq.empty,
      Seq(sum("ps", "ps_supplycost", "value"), cnt("n_parts"))),

    q("Q12",
      Seq(TableRef("o", "orders"),
        TableRef("l", "lineitem", Some(and(inS("l_returnflag", "R", "A"),
          geS("l_shipdate", "1994-01-01"), ltS("l_shipdate", "1995-01-01"))))),
      Seq(JoinPred("l", "l_orderkey", "o", "o_orderkey")),
      Seq(oc("o", "o_orderpriority")),
      Seq(cnt("line_count"))),

    q("Q13",
      Seq(TableRef("c", "customer"), TableRef("o", "orders")),
      Seq(JoinPred("o", "o_custkey", "c", "c_custkey")),
      Seq(oc("o", "o_orderstatus")),
      Seq(cnt("order_count"))),

    q("Q14",
      Seq(TableRef("p", "part", Some(eqS("p_type", "PROMO"))),
        TableRef("l", "lineitem", Some(and(geS("l_shipdate", "1995-09-01"),
          ltS("l_shipdate", "1995-10-01"))))),
      Seq(JoinPred("l", "l_partkey", "p", "p_partkey")),
      Seq.empty,
      Seq(sum("l", "l_extendedprice", "promo_revenue"), cnt("n_lines"))),

    q("Q15",
      Seq(TableRef("l", "lineitem", Some(and(geS("l_shipdate", "1996-01-01"),
        ltS("l_shipdate", "1996-04-01")))),
        TableRef("s", "supplier")),
      Seq(JoinPred("l", "l_suppkey", "s", "s_suppkey")),
      Seq(oc("s", "s_nationkey")),
      Seq(sum("l", "l_extendedprice", "total_revenue"))),

    q("Q16",
      Seq(TableRef("p", "part", Some(and(neS("p_type", "STANDARD"),
        inL("p_size", 9, 14, 19, 23, 36, 45, 49, 3)))),
        TableRef("ps", "partsupp")),
      Seq(JoinPred("ps", "ps_partkey", "p", "p_partkey")),
      Seq(oc("p", "p_type"), oc("p", "p_size")),
      Seq(cnt("supplier_cnt"))),

    q("Q17",
      Seq(TableRef("p", "part", Some(eqS("p_type", "ECONOMY"))),
        TableRef("l", "lineitem", Some(Cmp("l_quantity", OpLt, LD(3))))),
      Seq(JoinPred("l", "l_partkey", "p", "p_partkey")),
      Seq.empty,
      Seq(avg("l", "l_quantity", "avg_qty"), sum("l", "l_extendedprice", "avg_yearly"))),

    q("Q18",
      Seq(TableRef("l", "lineitem", Some(Cmp("l_quantity", OpGt, LD(48)))),
        TableRef("o", "orders"), TableRef("c", "customer")),
      Seq(JoinPred("l", "l_orderkey", "o", "o_orderkey"),
        JoinPred("o", "o_custkey", "c", "c_custkey")),
      Seq.empty,
      Seq(cnt("n_big"), sum("l", "l_quantity", "sum_qty"))),

    q("Q19",
      Seq(TableRef("p", "part", Some(and(inS("p_type", "SMALL", "MEDIUM"),
        between("p_size", 1, 11)))),
        TableRef("l", "lineitem", Some(and(Cmp("l_quantity", OpGe, LD(1)),
          Cmp("l_quantity", OpLe, LD(12)))))),
      Seq(JoinPred("l", "l_partkey", "p", "p_partkey")),
      Seq.empty,
      Seq(sum("l", "l_extendedprice", "revenue"))),

    q("Q20",
      Seq(TableRef("n", "nation", Some(eqS("n_name", "CANADA"))),
        TableRef("s", "supplier"), TableRef("ps", "partsupp"),
        TableRef("p", "part", Some(eqS("p_type", "SMALL")))),
      Seq(JoinPred("s", "s_nationkey", "n", "n_nationkey"),
        JoinPred("ps", "ps_suppkey", "s", "s_suppkey"),
        JoinPred("ps", "ps_partkey", "p", "p_partkey")),
      Seq.empty,
      Seq(cnt("n_avail"), mn("s", "s_name", "min_supp"))),

    q("Q21",
      Seq(TableRef("n", "nation", Some(eqS("n_name", "SAUDI ARABIA"))),
        TableRef("s", "supplier"),
        TableRef("l", "lineitem", Some(eqS("l_returnflag", "R"))),
        TableRef("o", "orders", Some(eqS("o_orderstatus", "F")))),
      Seq(JoinPred("s", "s_nationkey", "n", "n_nationkey"),
        JoinPred("l", "l_suppkey", "s", "s_suppkey"),
        JoinPred("l", "l_orderkey", "o", "o_orderkey")),
      Seq.empty,
      Seq(cnt("numwait"), mn("s", "s_name", "min_supp"))),

    q("Q22",
      Seq(TableRef("c", "customer", Some(and(Cmp("c_acctbal", OpGt, LD(7000)),
        inS("c_mktsegment", "BUILDING", "MACHINERY")))),
        TableRef("o", "orders")),
      Seq(JoinPred("o", "o_custkey", "c", "c_custkey")),
      Seq(oc("c", "c_mktsegment")),
      Seq(cnt("numcust"), sum("c", "c_acctbal", "totacctbal"))),
  )

  def byName(name: String): Query = queries.find(_.name == name).get
}
