package repro.tpch

import org.apache.spark.sql.DataFrame
import repro.{Canon, Oracle, SparkSpec, StepCounts}
import repro.core._
import scala.collection.mutable

/** All 22 TPC-H-lite queries: vanilla Spark vs DuckDB oracle, GRainDB-mode
  * vs vanilla. GRainDB-mode here has predefined joins but no RID indices,
  * matching the paper's TPC-H setup.
  */
class TpchEquivalenceSpec extends SparkSpec {
  private val Sf = 0.002

  private lazy val cat   = TpchQueries.catalog(spark, Sf)
  private lazy val duck  = new SparkExec(cat, GrainConfig.Duck)
  private lazy val grain = new SparkExec(cat, GrainConfig.Full)

  // Spark-Duck's canonical rows per query, computed once by the oracle test
  // and reused by the spark-grain test.
  private val expectedRows = mutable.Map[String, Seq[Seq[String]]]()
  private def expected(q: Query): Seq[Seq[String]] =
    expectedRows.getOrElseUpdate(q.name, Canon.ofDf(duck.run(q)._1))

  // Spark-Grain's (sipFilters, reverseSemijoins, mergedJoins, ridJoins) per
  // query: the lowered steps its sip-benefit gate lets through.
  private val SparkGrainSteps = Map[String, (Int, Int, Int, Int)](
    "Q1" -> ((0, 0, 0, 0)),
    "Q2" -> ((1, 0, 0, 4)),
    "Q3" -> ((0, 0, 0, 2)),
    "Q4" -> ((0, 0, 0, 1)),
    "Q5" -> ((0, 0, 0, 6)),
    "Q6" -> ((0, 0, 0, 0)),
    "Q7" -> ((1, 0, 0, 5)),
    "Q8" -> ((3, 0, 0, 7)),
    "Q9" -> ((1, 0, 0, 6)),
    "Q10" -> ((1, 0, 0, 3)),
    "Q11" -> ((0, 0, 0, 2)),
    "Q12" -> ((0, 0, 0, 1)),
    "Q13" -> ((0, 0, 0, 1)),
    "Q14" -> ((0, 0, 0, 1)),
    "Q15" -> ((0, 0, 0, 1)),
    "Q16" -> ((0, 0, 0, 1)),
    "Q17" -> ((0, 0, 0, 1)),
    "Q18" -> ((1, 0, 0, 2)),
    "Q19" -> ((0, 0, 0, 1)),
    "Q20" -> ((1, 0, 0, 3)),
    "Q21" -> ((1, 0, 0, 3)),
    "Q22" -> ((0, 0, 0, 1)))

  /** Spark-Duck's result for `q`, checked against the oracle. */
  private def oracleChecked(q: Query): DataFrame = {
    val (df, _) = duck.run(q)
    val tables = q.refs.map(_.table).distinct.map(t => t -> cat.raw(t))
    Oracle.assertEquivalent(df, QueryIR.toSql(q, cat.rawMap), tables: _*)
    df
  }

  for (q <- TpchQueries.queries) {
    test(s"TPCH ${q.name}: spark-duck matches DuckDB oracle") {
      expectedRows(q.name) = Canon.ofDf(oracleChecked(q))
    }

    test(s"TPCH ${q.name}: spark-grain matches spark-duck") {
      val (df, m) = grain.run(q)
      assert(Canon.ofDf(df) == expected(q), s"grain mismatch on ${q.name}")
      assert(StepCounts.of(m) == SparkGrainSteps(q.name), s"grain steps on ${q.name}")
    }
  }

  private def lineitemAgg(pred: Option[Pred], aggs: AggExpr*): Query =
    Query("agg", Seq(TableRef("l", "lineitem", pred)), Nil, Nil, Some(AggSpec(Nil, aggs)))

  test("TPCH oracle: a double column compares with a long literal as a double") {
    // l_quantity is fractional: a column cast to the literal's type would
    // round it before comparing
    val q = lineitemAgg(Some(Pred.gt("l_quantity", 24)), AggExpr("countstar", None, "n"))
    val n = oracleChecked(q).collect().head.getLong(0)
    assert(n > 0 && n < cat.rows("lineitem"))
  }

  test("TPCH oracle: MIN and MAX over a date column") {
    val of = Some(OutCol("l", "l_shipdate"))
    oracleChecked(lineitemAgg(None, AggExpr("min", of, "lo"), AggExpr("max", of, "hi")))
  }

  test("TPCH: grain replaces value joins with RID joins on join queries") {
    val (_, m) = grain.run(TpchQueries.byName("Q3"))
    assert(m.ridJoins > 0, "expected RID-equality joins in Q3")
  }

  test("TPCH: no RID indices exist, so no reverse semijoins fire") {
    val (_, m) = grain.run(TpchQueries.byName("Q5"))
    assert(m.reverseSemijoins == 0)
    assert(m.mergedJoins == 0)
  }
}
