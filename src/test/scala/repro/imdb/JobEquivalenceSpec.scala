package repro.imdb

import repro.{Canon, Oracle, SparkSpec, StepCounts}
import repro.core._
import repro.columnar.{ColumnStore, ColumnarExec}
import scala.collection.mutable

/** Every JOB-lite query, with a row count beside its MINs: vanilla Spark vs
  * DuckDB oracle, GRainDB-mode vs vanilla on both the Spark engine and the
  * serial columnar substrate.
  */
class JobEquivalenceSpec extends SparkSpec {
  private val Sf = 0.01

  private lazy val cat = ImdbData.catalog(spark, Sf)
  private lazy val store = ColumnStore.of(cat)
  private lazy val duck  = new SparkExec(cat, GrainConfig.Duck)
  private lazy val grain = new SparkExec(cat, GrainConfig.Full)

  // Spark-Duck's canonical rows per query, computed once and shared by
  // every engine's test.
  private val expectedRows = mutable.Map[String, Seq[Seq[String]]]()
  private def expected(q: Query): Seq[Seq[String]] =
    expectedRows.getOrElseUpdate(q.name, Canon.ofDf(duck.run(q)._1))

  // Spark-Grain's (sipFilters, reverseSemijoins, mergedJoins, ridJoins) per
  // query: the lowered steps its sip-benefit gate lets through.
  private val SparkGrainSteps = Map[String, (Int, Int, Int, Int)](
    "1a" -> ((0, 0, 1, 2)),
    "1b" -> ((0, 1, 1, 2)),
    "2a" -> ((0, 0, 2, 0)),
    "2b" -> ((0, 0, 2, 0)),
    "3a" -> ((0, 1, 1, 1)),
    "3b" -> ((0, 1, 1, 1)),
    "4a" -> ((1, 1, 1, 2)),
    "4b" -> ((1, 1, 1, 2)),
    "5a" -> ((1, 2, 0, 3)),
    "5b" -> ((1, 2, 0, 3)),
    "6a" -> ((0, 0, 2, 0)),
    "6b" -> ((0, 0, 2, 0)),
    "7a" -> ((1, 1, 1, 4)),
    "8a" -> ((2, 1, 1, 4)),
    "9a" -> ((2, 2, 1, 4)),
    "10a" -> ((3, 2, 0, 5)),
    "11a" -> ((4, 2, 1, 6)),
    "12a" -> ((4, 3, 0, 7)),
    "13a" -> ((4, 4, 0, 8)),
    "14a" -> ((2, 2, 1, 5)),
    "15a" -> ((2, 2, 1, 4)),
    "16a" -> ((0, 0, 3, 1)),
    "17a" -> ((0, 0, 3, 0)),
    "18a" -> ((3, 3, 0, 6)),
    "19a" -> ((3, 3, 1, 6)),
    "20a" -> ((2, 1, 2, 4)),
    "21a" -> ((3, 2, 1, 7)),
    "22a" -> ((4, 3, 1, 8)),
    "23a" -> ((3, 2, 1, 6)),
    "24a" -> ((3, 3, 2, 6)),
    "25a" -> ((1, 1, 2, 4)),
    "26a" -> ((1, 1, 3, 3)),
    "27a" -> ((5, 3, 1, 9)),
    "28a" -> ((6, 4, 1, 11)),
    "29a" -> ((3, 3, 3, 6)),
    "30a" -> ((3, 3, 2, 7)),
    "31a" -> ((1, 2, 3, 4)),
    "32a" -> ((1, 0, 1, 3)),
    "33a" -> ((3, 2, 1, 6)))

  // Every JOB-lite query ends in MINs, which a scan that duplicates one row
  // and drops another leaves unchanged; a count(*) beside them (and no
  // other change, so plans and join merging stay as they are) pins the
  // number of joined rows on every engine.
  private def counted(q: Query): Query =
    q.copy(agg = q.agg.map(a => a.copy(aggs = a.aggs :+ AggExpr("countstar", None, "n_rows"))))

  for (q <- JobQueries.queries.map(counted)) {
    test(s"JOB ${q.name}: spark-duck matches DuckDB oracle") {
      val (df, _) = duck.run(q)
      val tables = q.refs.map(_.table).distinct.map(t => t -> cat.raw(t))
      Oracle.assertEquivalent(df, QueryIR.toSql(q, cat.rawMap), tables: _*)
      expectedRows(q.name) = Canon.ofDf(df)
    }

    test(s"JOB ${q.name}: spark-grain matches spark-duck") {
      val (df, m) = grain.run(q)
      assert(Canon.ofDf(df) == expected(q), s"grain mismatch on ${q.name}")
      assert(StepCounts.of(m) == SparkGrainSteps(q.name), s"grain steps on ${q.name}")
    }

    for ((cfgName, cfg) <- Seq(
        "duck" -> GrainConfig.Duck, "rid-only" -> GrainConfig.RidOnly,
        "no-jm" -> GrainConfig.NoJm, "full" -> GrainConfig.Full)) {
      test(s"JOB ${q.name}: columnar[$cfgName] matches spark-duck") {
        val (inter, m) = new ColumnarExec(store, cat, cfg).run(q)
        assert(Canon.ofInter(inter) == expected(q), s"columnar[$cfgName] mismatch on ${q.name}")
        assert(StepCounts.of(m) == StepCounts.of(GrainPlanner.lower(q, q.plan, cfg, cat)),
          s"columnar[$cfgName] steps on ${q.name}")
      }
    }
  }

  test("JOB: grain reduces scanned tuples on selective m2m queries") {
    val (_, md) = duck.run(JobQueries.byName("6a"))
    val (_, mg) = grain.run(JobQueries.byName("6a"))
    assert(mg.totalScanned < md.totalScanned,
      s"expected scan reduction, duck=${md.totalScanned} grain=${mg.totalScanned}")
  }
}
