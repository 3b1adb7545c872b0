package repro.tpch

import repro.{Canon, Oracle, SparkSpec}
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

  for (q <- TpchQueries.queries) {
    test(s"TPCH ${q.name}: spark-duck matches DuckDB oracle") {
      val (df, _) = duck.run(q)
      val tables = q.refs.map(_.table).distinct.map(t => t -> cat.raw(t))
      Oracle.assertEquivalent(df, QueryIR.toSql(q, cat.rawMap), tables: _*)
      expectedRows(q.name) = Canon.ofDf(df)
    }

    test(s"TPCH ${q.name}: spark-grain matches spark-duck") {
      val got = Canon.ofDf(grain.run(q)._1)
      assert(got == expected(q), s"grain mismatch on ${q.name}")
    }
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
