package repro.ldbc

import repro.{Canon, Oracle, SparkSpec}
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
      val got = Canon.ofDf(grainSpark.run(q)._1)
      assert(got == expected(q), s"grain mismatch on ${q.name}")
    }

    for ((cfgName, cfg) <- Seq(
        "duck" -> GrainConfig.Duck, "rid-only" -> GrainConfig.RidOnly,
        "no-jm" -> GrainConfig.NoJm, "full" -> GrainConfig.Full)) {
      test(s"${q.name}: columnar[$cfgName] matches spark-duck") {
        val (inter, _) = new ColumnarExec(store, cat, cfg).run(q)
        assert(Canon.ofInter(inter) == expected(q), s"columnar[$cfgName] mismatch on ${q.name}")
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
