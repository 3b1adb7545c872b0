package repro.bench

import repro.SparkSpec
import repro.core.GrainCatalog
import repro.columnar.ColumnStore
import repro.ldbc.LdbcData
import repro.imdb.ImdbData
import repro.tpch.TpchQueries

/** Shared benchmark databases, built once per bench JVM. */
object BenchData {
  lazy val spark = {
    val s = SparkSpec.shared
    // fewer shuffle partitions: bench queries are sub-GB, 64 partitions of
    // scheduling overhead would swamp the effect under measurement
    s.conf.set("spark.sql.shuffle.partitions", "16")
    s
  }

  /** SNB-lite at bench scale (serial-engine substrate for Tables 5/6/10). */
  val SnbScale = 3.0
  lazy val snbCat: GrainCatalog = LdbcData.catalog(spark, SnbScale)
  lazy val snbStore: ColumnStore = ColumnStore.of(snbCat)
  lazy val snbScaleCfg: LdbcData.Scale = LdbcData.scale(SnbScale)

  /** IMDB-lite at bench scale (serial columnar substrate, Tables 3/4/7/8 —
    * the paper compares only DuckDB vs GRainDB there, so the shared serial
    * engine gives the cleanest like-for-like; see DESIGN.md).
    */
  val JobScale = 1.0
  lazy val imdbCat: GrainCatalog = ImdbData.catalog(spark, JobScale)
  lazy val imdbStore: ColumnStore = ColumnStore.of(imdbCat)

  /** TPC-H-lite at bench scale (Table 9). */
  val TpchSf = 0.05
  lazy val tpchCat: GrainCatalog = TpchQueries.catalog(spark, TpchSf)
}
