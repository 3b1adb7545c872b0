package grainperf

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.columnar.{ColumnStore, ColumnarExec, Inter, LongCol}
import repro.core._
import repro.graphsim.GraphflowSim
import repro.imdb.{ImdbData, JobQueries}
import repro.ldbc.{LdbcData, SnbQueries}

/** An engine under test: runs one query and returns its result with the
  * counters the executor reported for it.
  */
final class Engine(val name: String, val exec: Query => (Inter, Seq[(String, Long)]))

/** One benchmark database, the public calls that build it, and the engines
  * that query it. Both workloads run on the serial engines over the
  * ColumnStore; Spark only builds the database.
  */
sealed abstract class Workload(val name: String, val scale: Double) {
  def tables(spark: SparkSession, scale: Double, seed: Long): Seq[(String, DataFrame)]
  def pks: Map[String, Seq[String]]
  def predefs: Seq[PredefJoin]
  /** (table, fk, other fk): relationship tables indexed in both directions
    * with the extended RID index (§5.2); other predefined joins get a plain one. */
  def extendedPairs: Seq[(String, String, String)]
  def queries(scale: Double): Seq[Query]
  /** The Duck-config engine first: it is the reference of the check. */
  def engines(db: Db): Seq[Engine]
}

object Workload {
  private def columnar(name: String, db: Db, cfg: GrainConfig): Engine = {
    val ex = new ColumnarExec(db.store, db.cat, cfg)
    new Engine(name, q => {
      val (res, m) = ex.run(q)
      (res, Seq("scanned_rows" -> m.totalScanned, "probes" -> m.probes,
        "index_lookups" -> m.indexLookups, "zones_skipped" -> m.zonesSkipped))
    })
  }

  /** SNB-lite: graph-shaped, selective many-to-many joins, where the CSR
    * index, reverse semijoins, join merging and point lookups do the work;
    * the only workload GraphflowSim can run. */
  object Snb extends Workload("snb", 0.5) {
    def tables(spark: SparkSession, scale: Double, seed: Long) = LdbcData.tables(spark, scale, seed).toSeq
    def pks = LdbcData.pks
    def predefs = LdbcData.predefs
    def extendedPairs = LdbcData.extendedPairs
    def queries(scale: Double) = SnbQueries.queries(LdbcData.scale(scale))
    def engines(db: Db) = {
      val gf = new GraphflowSim(db.store)
      Seq(columnar("duck", db, GrainConfig.Duck), columnar("grain", db, GrainConfig.Full),
        new Engine("gf", q => {
          val (res, m) = gf.run(q)
          (res, Seq("scanned_rows" -> m.scanned, "index_lookups" -> m.indexLookups,
            "extended_tuples" -> m.extendedTuples, "property_reads" -> m.propertyReads))
        }))
    }
  }

  /** IMDB-lite / JOB-lite: analytic joins over larger tables ending in MIN
    * aggregates, where scans, predicates, hash joins and ScanSJ zone
    * skipping dominate and CSR work is small. */
  object Job extends Workload("job", 0.3) {
    def tables(spark: SparkSession, scale: Double, seed: Long) = ImdbData.tables(spark, scale, seed).toSeq
    def pks = ImdbData.pks
    def predefs = ImdbData.predefs
    def extendedPairs = ImdbData.extendedPairs
    def queries(scale: Double) = JobQueries.queries
    def engines(db: Db) =
      Seq(columnar("duck", db, GrainConfig.Duck), columnar("grain", db, GrainConfig.Full))
  }

  val all: Seq[Workload] = Seq(Snb, Job)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (${all.map(_.name).mkString(", ")})"))
}

/** A built database: the Spark session it was built in, the catalog and
  * the column store. Set-up times are in milliseconds, by layer.
  */
final class Db(val workload: Workload, val spark: SparkSession, val cat: GrainCatalog,
               val store: ColumnStore, val setupMs: Map[String, Double]) {

  def ridIndices: Seq[RidIndexCsr] = cat.ridIndices.values.toSeq

  /** Space cost of predefined joins: 8 B per materialized `rid_*` value
    * plus every CSR RID index, in MB (10^6 B). */
  def ridMemMb: Double =
    (cat.predefined.map(pj => 8L * cat.rows(pj.fTable)).sum + ridIndices.map(_.sizeBytes).sum) / 1e6

  def danglingFks: Long = cat.danglingCounts.values.sum

  /** Row counts per table and a checksum over every `rid_*` column in RID
    * order: equal for equal seeds, whatever the run. */
  def dataDigest: String =
    cat.tableNames.map { t =>
      val h = cat.predefined.filter(_.fTable == t).foldLeft(t.hashCode) { (acc, pj) =>
        store(t).col(pj.ridCol) match {
          case LongCol(a) => scala.util.hashing.MurmurHash3.arrayHash(a, acc)
          case other      => sys.error(s"$t.${pj.ridCol} is not a long column: $other")
        }
      }
      f"$t=${cat.rows(t)}%d/$h%08x"
    }.mkString(" ")
}

object Db {
  /** Fixed local master and partition counts: the generators draw `rand(seed)`
    * per partition, so the data depend on them. */
  val Master = "local[2]"
  val Partitions = "2"

  def startSpark(localDir: String): SparkSession =
    SparkSession.builder
      .master(Master)
      .appName("grainperf")
      .config("spark.default.parallelism", Partitions)
      .config("spark.sql.shuffle.partitions", Partitions)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .getOrCreate()

  /** Build the workload's database through the public API, timing each
    * layer: Spark session, catalog (generation, `register`, `predefine`,
    * `freeze`), CSR RID indices (`buildRidIndex`) and `ColumnStore.load`.
    */
  def build(w: Workload, scale: Double, seed: Long, localDir: String, tracer: Tracer): Db = {
    val ms = scala.collection.mutable.LinkedHashMap[String, Double]()
    def timed[T](key: String)(body: => T): T = {
      val t0 = System.nanoTime()
      try tracer.span(key)(body) finally ms(key) = (System.nanoTime() - t0) / 1e6
    }
    val spark = timed("setup.spark")(startSpark(localDir))
    val cat = new GrainCatalog(spark)
    timed("setup.catalog") {
      val ts = tracer.span("catalog.generate")(w.tables(spark, scale, seed))
      tracer.span("catalog.register")(ts.foreach { case (n, df) => cat.register(n, df, w.pks(n)) })
      tracer.span("catalog.predefine")(w.predefs.foreach(cat.predefine))
      tracer.span("catalog.freeze")(cat.freeze())
    }
    timed("setup.csr") {
      val ext = w.extendedPairs.flatMap { case (t, a, b) => Seq((t, a) -> b, (t, b) -> a) }.toMap
      w.predefs.foreach(pj => cat.buildRidIndex(pj.fTable, pj.fkCol, ext.get((pj.fTable, pj.fkCol))))
    }
    val store = timed("setup.store") {
      val st = new ColumnStore
      cat.tableNames.foreach(n => st.load(n, cat.ext(n)))
      st
    }
    new Db(w, spark, cat, store, ms.toMap)
  }
}
