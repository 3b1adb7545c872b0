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
  // query: the lowered steps its sip-benefit gate keeps in its plan.
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

  // The serial engine's (totalScanned, probes, indexLookups, zonesSkipped)
  // per query under Duck and Full: what each query reads and probes, which
  // a change to the shared kernels must leave as it is.
  private val ColumnarAccess = Map[String, Map[String, (Long, Long, Long, Long)]](
    "duck" -> Map[String, (Long, Long, Long, Long)](
      "1a" -> ((1417L, 901L, 0L, 0L)),
      "1b" -> ((1417L, 1022L, 0L, 0L)),
      "2a" -> ((1910L, 1810L, 0L, 0L)),
      "2b" -> ((1910L, 1800L, 0L, 0L)),
      "3a" -> ((2460L, 1259L, 0L, 0L)),
      "3b" -> ((2460L, 1058L, 0L, 0L)),
      "4a" -> ((1773L, 1160L, 0L, 0L)),
      "4b" -> ((1773L, 979L, 0L, 0L)),
      "5a" -> ((2104L, 1011L, 0L, 0L)),
      "5b" -> ((2104L, 279L, 0L, 0L)),
      "6a" -> ((3660L, 2960L, 0L, 0L)),
      "6b" -> ((3660L, 2998L, 0L, 0L)),
      "7a" -> ((3278L, 2625L, 0L, 0L)),
      "8a" -> ((3562L, 1506L, 0L, 0L)),
      "9a" -> ((3562L, 1521L, 0L, 0L)),
      "10a" -> ((2966L, 1109L, 0L, 0L)),
      "11a" -> ((2292L, 1993L, 0L, 0L)),
      "12a" -> ((2780L, 865L, 0L, 0L)),
      "13a" -> ((2787L, 1153L, 0L, 0L)),
      "14a" -> ((3093L, 1622L, 0L, 0L)),
      "15a" -> ((3223L, 1262L, 0L, 0L)),
      "16a" -> ((4510L, 4420L, 0L, 0L)),
      "17a" -> ((4310L, 3866L, 0L, 0L)),
      "18a" -> ((4526L, 1266L, 0L, 0L)),
      "19a" -> ((4875L, 1185L, 0L, 0L)),
      "20a" -> ((3735L, 3660L, 0L, 0L)),
      "21a" -> ((3492L, 2328L, 0L, 0L)),
      "22a" -> ((3747L, 2044L, 0L, 0L)),
      "23a" -> ((2338L, 887L, 0L, 0L)),
      "24a" -> ((5835L, 2117L, 0L, 0L)),
      "25a" -> ((5486L, 3862L, 0L, 0L)),
      "26a" -> ((4244L, 3284L, 0L, 0L)),
      "27a" -> ((2360L, 2094L, 0L, 0L)),
      "28a" -> ((3815L, 2200L, 0L, 0L)),
      "29a" -> ((5899L, 2161L, 0L, 0L)),
      "30a" -> ((5554L, 3526L, 0L, 0L)),
      "31a" -> ((6136L, 4107L, 0L, 0L)),
      "32a" -> ((1638L, 1578L, 0L, 0L)),
      "33a" -> ((1848L, 1127L, 0L, 0L))
    ),
    "full" -> Map[String, (Long, Long, Long, Long)](
      "1a" -> ((255L, 34L, 50L, 0L)),
      "1b" -> ((164L, 3L, 50L, 0L)),
      "2a" -> ((152L, 0L, 179L, 0L)),
      "2b" -> ((152L, 0L, 179L, 0L)),
      "3a" -> ((182L, 11L, 54L, 0L)),
      "3b" -> ((60L, 0L, 0L, 3L)),
      "4a" -> ((134L, 7L, 54L, 0L)),
      "4b" -> ((126L, 1L, 54L, 0L)),
      "5a" -> ((308L, 139L, 0L, 0L)),
      "5b" -> ((154L, 0L, 0L, 3L)),
      "6a" -> ((60L, 0L, 0L, 2L)),
      "6b" -> ((60L, 0L, 0L, 2L)),
      "7a" -> ((444L, 7L, 38L, 1L)),
      "8a" -> ((2134L, 128L, 0L, 3L)),
      "9a" -> ((471L, 8L, 2L, 0L)),
      "10a" -> ((302L, 133L, 0L, 0L)),
      "11a" -> ((112L, 1L, 54L, 4L)),
      "12a" -> ((181L, 13L, 0L, 3L)),
      "13a" -> ((138L, 71L, 0L, 3L)),
      "14a" -> ((116L, 0L, 54L, 5L)),
      "15a" -> ((503L, 79L, 61L, 0L)),
      "16a" -> ((379L, 72L, 536L, 0L)),
      "17a" -> ((338L, 0L, 533L, 0L)),
      "18a" -> ((415L, 119L, 0L, 3L)),
      "19a" -> ((400L, 0L, 0L, 9L)),
      "20a" -> ((76L, 61L, 5L, 1L)),
      "21a" -> ((60L, 0L, 0L, 9L)),
      "22a" -> ((60L, 0L, 0L, 10L)),
      "23a" -> ((4L, 0L, 0L, 8L)),
      "24a" -> ((210L, 17L, 54L, 2L)),
      "25a" -> ((60L, 0L, 0L, 7L)),
      "26a" -> ((38L, 0L, 30L, 4L)),
      "27a" -> ((60L, 0L, 0L, 10L)),
      "28a" -> ((60L, 0L, 0L, 13L)),
      "29a" -> ((60L, 0L, 0L, 11L)),
      "30a" -> ((80L, 39L, 20L, 6L)),
      "31a" -> ((341L, 28L, 54L, 4L)),
      "32a" -> ((60L, 0L, 0L, 4L)),
      "33a" -> ((252L, 1L, 281L, 4L))
    ))

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
      val (df, _) = grain.run(q)
      assert(Canon.ofDf(df) == expected(q), s"grain mismatch on ${q.name}")
      assert(StepCounts.of(grain.plan(q)) == SparkGrainSteps(q.name), s"grain steps on ${q.name}")
    }

    for ((cfgName, cfg) <- Seq(
        "duck" -> GrainConfig.Duck, "rid-only" -> GrainConfig.RidOnly,
        "no-jm" -> GrainConfig.NoJm, "full" -> GrainConfig.Full)) {
      test(s"JOB ${q.name}: columnar[$cfgName] matches spark-duck") {
        val exec = new ColumnarExec(store, cat, cfg)
        val (inter, m) = exec.run(q)
        assert(Canon.ofInter(inter) == expected(q), s"columnar[$cfgName] mismatch on ${q.name}")
        assert(exec.plan(q).root == GrainPlanner.lower(q, cfg, cat).root, s"columnar[$cfgName] plan of ${q.name}")
        ColumnarAccess.get(cfgName).foreach { want =>
          assert((m.totalScanned, m.probes, m.indexLookups, m.zonesSkipped) == want(q.name),
            s"columnar[$cfgName] access pattern on ${q.name}")
        }
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
