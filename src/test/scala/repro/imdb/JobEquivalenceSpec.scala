package repro.imdb

import repro.{Canon, Oracle, SparkSpec}
import repro.core._
import repro.columnar.ColumnarExec
import scala.collection.mutable

/** Every JOB-lite query: vanilla Spark vs DuckDB oracle, GRainDB-mode vs
  * vanilla on both the Spark engine and the serial columnar substrate.
  */
class JobEquivalenceSpec extends SparkSpec {
  private val Sf = 0.01

  private lazy val cat = ImdbData.catalog(spark, Sf)
  private lazy val store = ImdbData.store(cat)
  private lazy val duck  = new SparkExec(cat, GrainConfig.Duck)
  private lazy val grain = new SparkExec(cat, GrainConfig.Full)

  // Spark-Duck's canonical rows per query, computed once and shared by
  // every engine's test.
  private val expectedRows = mutable.Map[String, Seq[Seq[String]]]()
  private def expected(q: Query): Seq[Seq[String]] =
    expectedRows.getOrElseUpdate(q.name, Canon.ofDf(duck.run(q)._1))

  for (q <- JobQueries.queries) {
    test(s"JOB ${q.name}: spark-duck matches DuckDB oracle") {
      val (df, _) = duck.run(q)
      val tables = q.refs.map(_.table).distinct.map(t => t -> cat.raw(t))
      Oracle.assertEquivalent(df, QueryIR.toSql(q, cat.rawMap), tables: _*)
      expectedRows(q.name) = Canon.ofDf(df)
    }

    test(s"JOB ${q.name}: spark-grain matches spark-duck") {
      val got = Canon.ofDf(grain.run(q)._1)
      assert(got == expected(q), s"grain mismatch on ${q.name}")
    }

    for ((cfgName, cfg) <- Seq(
        "duck" -> GrainConfig.Duck, "rid-only" -> GrainConfig.RidOnly,
        "no-jm" -> GrainConfig.NoJm, "full" -> GrainConfig.Full)) {
      test(s"JOB ${q.name}: columnar[$cfgName] matches spark-duck") {
        val (inter, _) = new ColumnarExec(store, cat, cfg).run(q)
        assert(Canon.ofInter(inter) == expected(q), s"columnar[$cfgName] mismatch on ${q.name}")
      }
    }

    test(s"JOB ${q.name}: columnar[full] with 64-row zones matches spark-duck") {
      val (inter, _) = Bitmap.withZoneSize(64)(new ColumnarExec(store, cat, GrainConfig.Full).run(q))
      assert(Canon.ofInter(inter) == expected(q), s"columnar[full] mismatch on ${q.name}")
    }
  }

  test("JOB: grain reduces scanned tuples on selective m2m queries") {
    val (_, md) = duck.run(JobQueries.byName("6a"))
    val (_, mg) = grain.run(JobQueries.byName("6a"))
    assert(mg.totalScanned < md.totalScanned,
      s"expected scan reduction, duck=${md.totalScanned} grain=${mg.totalScanned}")
  }
}
