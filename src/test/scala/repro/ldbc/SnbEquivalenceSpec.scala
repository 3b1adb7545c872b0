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
  // query: the lowered steps its sip-benefit gate keeps in its plan.
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

  // The serial engine's (totalScanned, probes, indexLookups, zonesSkipped)
  // per query under Duck and Full: what each query reads and probes, which
  // a change to the shared kernels must leave as it is.
  private val ColumnarAccess = Map[String, Map[String, (Long, Long, Long, Long)]](
    "duck" -> Map[String, (Long, Long, Long, Long)](
      "IS1" -> ((61L, 60L, 1L, 0L)),
      "IS2" -> ((2461L, 2460L, 1L, 0L)),
      "IS3" -> ((1261L, 1260L, 1L, 0L)),
      "IS4" -> ((1L, 0L, 1L, 0L)),
      "IS5" -> ((61L, 60L, 1L, 0L)),
      "IS6" -> ((691L, 690L, 1L, 0L)),
      "IS7" -> ((1861L, 1860L, 1L, 0L)),
      "IC1-1" -> ((1321L, 1261L, 1L, 0L)),
      "IC1-2" -> ((2521L, 2461L, 1L, 0L)),
      "IC1-3" -> ((3721L, 3661L, 1L, 0L)),
      "IC2" -> ((3061L, 2163L, 1L, 0L)),
      "IC3-1" -> ((4981L, 2830L, 1L, 0L)),
      "IC3-2" -> ((6181L, 4030L, 1L, 0L)),
      "IC4" -> ((4381L, 4033L, 1L, 0L)),
      "IC5-1" -> ((2191L, 1969L, 1L, 0L)),
      "IC5-2" -> ((3391L, 3169L, 1L, 0L)),
      "IC6-1" -> ((4501L, 4440L, 1L, 0L)),
      "IC6-2" -> ((5701L, 5640L, 1L, 0L)),
      "IC7" -> ((3661L, 3660L, 1L, 0L)),
      "IC8" -> ((2520L, 2460L, 0L, 0L)),
      "IC9-1" -> ((3061L, 1671L, 1L, 0L)),
      "IC9-2" -> ((4261L, 2871L, 1L, 0L)),
      "IC11-1" -> ((1493L, 1403L, 1L, 0L)),
      "IC11-2" -> ((2693L, 2603L, 1L, 0L)),
      "IC12" -> ((5005L, 4993L, 1L, 0L)),
      "MUTUAL-1" -> ((2520L, 2460L, 0L, 0L)),
      "MUTUAL-2" -> ((2520L, 2460L, 0L, 0L))
    ),
    "full" -> Map[String, (Long, Long, Long, Long)](
      "IS1" -> ((2L, 1L, 1L, 0L)),
      "IS2" -> ((14L, 13L, 1L, 1L)),
      "IS3" -> ((37L, 36L, 1L, 0L)),
      "IS4" -> ((1L, 0L, 1L, 0L)),
      "IS5" -> ((2L, 1L, 1L, 0L)),
      "IS6" -> ((1L, 0L, 1L, 3L)),
      "IS7" -> ((1L, 0L, 1L, 3L)),
      "IC1-1" -> ((17L, 0L, 21L, 1L)),
      "IC1-2" -> ((380L, 329L, 1L, 1L)),
      "IC1-3" -> ((1383L, 1325L, 1L, 0L)),
      "IC2" -> ((895L, 444L, 21L, 0L)),
      "IC3-1" -> ((1206L, 490L, 21L, 0L)),
      "IC3-2" -> ((2616L, 1320L, 1L, 0L)),
      "IC4" -> ((389L, 128L, 5441L, 0L)),
      "IC5-1" -> ((403L, 326L, 21L, 0L)),
      "IC5-2" -> ((1156L, 962L, 1L, 0L)),
      "IC6-1" -> ((195L, 26L, 168L, 0L)),
      "IC6-2" -> ((613L, 438L, 2028L, 0L)),
      "IC7" -> ((29L, 28L, 1L, 1L)),
      "IC8" -> ((78L, 18L, 0L, 0L)),
      "IC9-1" -> ((895L, 185L, 21L, 0L)),
      "IC9-2" -> ((2139L, 783L, 1L, 0L)),
      "IC11-1" -> ((55L, 24L, 21L, 0L)),
      "IC11-2" -> ((495L, 446L, 1L, 0L)),
      "IC12" -> ((1369L, 1234L, 1331L, 0L)),
      "MUTUAL-1" -> ((1302L, 1183L, 1200L, 0L)),
      "MUTUAL-2" -> ((1319L, 59L, 1200L, 0L))
    ))

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
      val (df, _) = grainSpark.run(q)
      assert(Canon.ofDf(df) == expected(q), s"grain mismatch on ${q.name}")
      assert(StepCounts.of(grainSpark.plan(q)) == SparkGrainSteps(q.name), s"grain steps on ${q.name}")
    }

    for ((cfgName, cfg) <- Seq(
        "duck" -> GrainConfig.Duck, "rid-only" -> GrainConfig.RidOnly,
        "no-jm" -> GrainConfig.NoJm, "full" -> GrainConfig.Full)) {
      test(s"${q.name}: columnar[$cfgName] matches spark-duck") {
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

    test(s"${q.name}: graphsim matches spark-duck") {
      val (inter, m) = new GraphflowSim(store).run(q)
      assert(Canon.ofInter(inter) == expected(q), s"graphsim mismatch on ${q.name}")
      assert((m.scanned, m.indexLookups, m.extendedTuples, m.propertyReads) == GraphsimAccess(q.name),
        s"graphsim access pattern on ${q.name}")
    }
  }
}
