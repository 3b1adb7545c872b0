package repro.ldbc

import repro.{Canon, Oracle, SparkSpec, StepCounts}
import repro.core._
import repro.columnar.ColumnarExec
import repro.graphsim.GraphflowSim
import scala.collection.mutable

/** Every SNB-M query, every engine, one tiny database: results must agree
  * with each other and with the DuckDB oracle.
  */
class SnbEquivalenceSpec extends SparkSpec {
  private val Sf = 0.02 // tiny: person=60, knows=1200, comment=1800

  private lazy val cat   = LdbcData.catalog(spark, Sf)
  private lazy val store = LdbcData.store(cat)

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

    test(s"${q.name}: columnar[full] with 64-row zones matches spark-duck") {
      val (inter, _) = Bitmap.withZoneSize(64)(new ColumnarExec(store, cat, GrainConfig.Full).run(q))
      assert(Canon.ofInter(inter) == expected(q), s"columnar[full] mismatch on ${q.name}")
    }

    test(s"${q.name}: graphsim matches spark-duck") {
      val (inter, _) = new GraphflowSim(store).run(q)
      assert(Canon.ofInter(inter) == expected(q), s"graphsim mismatch on ${q.name}")
    }
  }
}
