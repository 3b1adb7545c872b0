package repro.ldbc

import repro.{Canon, Oracle, SparkSpec, StepCounts}
import repro.core._
import repro.columnar.{ColumnStore, ColumnarExec}
import repro.graphsim.GraphflowSim
import scala.collection.mutable

/** Every SNB-M query, every engine, one tiny database: results must agree
  * with each other and with the DuckDB oracle.
  */
class SnbEquivalenceSpec extends SparkSpec {
  private val Sf = 0.02 // tiny: person=60, knows=1200, comment=1800

  private lazy val cat   = LdbcData.catalog(spark, Sf)
  private lazy val store = ColumnStore.of(cat)

  private lazy val duckSpark  = new SparkExec(cat, GrainConfig.Duck)
  private lazy val grainSpark = new SparkExec(cat, GrainConfig.Full)

  // Spark-Duck's canonical rows per query, computed once and shared by
  // every engine's test.
  private val expectedRows = mutable.Map[String, Seq[Seq[String]]]()
  private def expected(q: Query): Seq[Seq[String]] =
    expectedRows.getOrElseUpdate(q.name, Canon.ofDf(duckSpark.run(q)._1))

  // Spark-Grain's (sipFilters, reverseSemijoins, mergedJoins, ridJoins) per
  // query: the lowered steps its sip-benefit gate lets through.
  private val SparkGrainSteps = Map[String, (Int, Int, Int, Int)](
    "IS1" -> ((1, 0, 0, 1)),
    "IS2" -> ((2, 1, 0, 3)),
    "IS3" -> ((1, 1, 0, 2)),
    "IS4" -> ((0, 0, 0, 0)),
    "IS5" -> ((1, 0, 0, 1)),
    "IS6" -> ((3, 0, 0, 3)),
    "IS7" -> ((1, 1, 0, 2)),
    "IC1-1" -> ((1, 0, 1, 1)),
    "IC1-2" -> ((1, 2, 0, 4)),
    "IC1-3" -> ((0, 3, 0, 5)),
    "IC2" -> ((0, 1, 1, 1)),
    "IC3-1" -> ((1, 2, 1, 4)),
    "IC3-2" -> ((1, 4, 0, 7)),
    "IC4" -> ((0, 1, 2, 2)),
    "IC5-1" -> ((1, 2, 1, 3)),
    "IC5-2" -> ((0, 3, 0, 6)),
    "IC6-1" -> ((0, 1, 3, 1)),
    "IC6-2" -> ((0, 3, 2, 4)),
    "IC7" -> ((1, 2, 0, 3)),
    "IC8" -> ((0, 2, 0, 3)),
    "IC9-1" -> ((0, 1, 1, 1)),
    "IC9-2" -> ((0, 3, 0, 4)),
    "IC11-1" -> ((2, 1, 1, 3)),
    "IC11-2" -> ((2, 2, 0, 6)),
    "IC12" -> ((0, 1, 2, 4)),
    "MUTUAL-1" -> ((0, 0, 1, 2)),
    "MUTUAL-2" -> ((0, 1, 1, 2)))

  // GraphflowSim's (scanned, indexLookups, extendedTuples, propertyReads)
  // per query: its access pattern, which no substrate change may alter.
  private val GraphsimAccess = Map[String, (Long, Long, Long, Long)](
    "IS1" -> ((60L, 1L, 1L, 2L)),
    "IS2" -> ((60L, 11L, 13L, 43L)),
    "IS3" -> ((60L, 21L, 40L, 120L)),
    "IS4" -> ((1800L, 0L, 0L, 0L)),
    "IS5" -> ((1800L, 1L, 1L, 3L)),
    "IS6" -> ((1800L, 1L, 0L, 0L)),
    "IS7" -> ((1800L, 1L, 0L, 0L)),
    "IC1-1" -> ((60L, 21L, 40L, 240L)),
    "IC1-2" -> ((60L, 416L, 810L, 4780L)),
    "IC1-3" -> ((60L, 8189L, 15950L, 93996L)),
    "IC2" -> ((60L, 41L, 1224L, 4856L)),
    "IC3-1" -> ((60L, 802L, 2434L, 6549L)),
    "IC3-2" -> ((60L, 13622L, 41764L, 112572L)),
    "IC4" -> ((60L, 8561L, 18220L, 43340L)),
    "IC5-1" -> ((60L, 93L, 574L, 806L)),
    "IC5-2" -> ((60L, 1841L, 12856L, 17774L)),
    "IC6-1" -> ((60L, 1238L, 2002L, 3984L)),
    "IC6-2" -> ((60L, 24975L, 40567L, 80739L)),
    "IC7" -> ((60L, 19L, 29L, 87L)),
    "IC8" -> ((60L, 13L, 19L, 66L)),
    "IC9-1" -> ((60L, 41L, 1224L, 2468L)),
    "IC9-2" -> ((60L, 811L, 22655L, 45705L)),
    "IC11-1" -> ((60L, 69L, 89L, 253L)),
    "IC11-2" -> ((60L, 1329L, 1754L, 4983L)),
    "IC12" -> ((60L, 5810L, 7119L, 13603L)),
    "MUTUAL-1" -> ((60L, 2460L, 25819L, 51638L)),
    "MUTUAL-2" -> ((60L, 2460L, 25819L, 51638L)))

  // MergeShapes: two merge-eligible relationship leaves per join node,
  // which join merging must fall back on instead of failing.
  for (q <- SnbQueries.queries(LdbcData.scale(Sf)) ++ MergeShapes.queries) {
    test(s"${q.name}: spark-duck matches DuckDB oracle") {
      val (df, _) = duckSpark.run(q)
      val tables = q.refs.map(_.table).distinct.map(t => t -> cat.raw(t))
      Oracle.assertEquivalent(df, QueryIR.toSql(q, cat.rawMap), tables: _*)
      expectedRows(q.name) = Canon.ofDf(df)
    }

    test(s"${q.name}: spark-grain matches spark-duck") {
      val (df, m) = grainSpark.run(q)
      assert(Canon.ofDf(df) == expected(q), s"grain mismatch on ${q.name}")
      assert(StepCounts.of(m) == SparkGrainSteps(q.name), s"grain steps on ${q.name}")
    }

    for ((cfgName, cfg) <- Seq(
        "duck" -> GrainConfig.Duck, "rid-only" -> GrainConfig.RidOnly,
        "no-jm" -> GrainConfig.NoJm, "full" -> GrainConfig.Full)) {
      test(s"${q.name}: columnar[$cfgName] matches spark-duck") {
        val (inter, m) = new ColumnarExec(store, cat, cfg).run(q)
        assert(Canon.ofInter(inter) == expected(q), s"columnar[$cfgName] mismatch on ${q.name}")
        assert(StepCounts.of(m) == StepCounts.of(GrainPlanner.lower(q, q.plan, cfg, cat)),
          s"columnar[$cfgName] steps on ${q.name}")
      }
    }

    test(s"${q.name}: graphsim matches spark-duck") {
      val (inter, m) = new GraphflowSim(store).run(q)
      assert(Canon.ofInter(inter) == expected(q), s"graphsim mismatch on ${q.name}")
      assert((m.scanned, m.indexLookups, m.extendedTuples, m.propertyReads) == GraphsimAccess(q.name),
        s"graphsim access pattern on ${q.name}")
    }
  }
}
