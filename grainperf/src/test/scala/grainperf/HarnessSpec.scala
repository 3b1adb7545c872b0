package grainperf

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.columnar.Inter
import repro.core.QueryIR

/** The harness's own checks, on tiny databases with the generators' default
  * seeds (SNB-lite 7, IMDB-lite 11).
  */
class HarnessSpec extends AnyFunSuite with BeforeAndAfterAll {
  private val Scale = 0.02
  private val localDir = new java.io.File("target/test-work").getAbsolutePath
  private lazy val snb = Db.build(Workload.Snb, Scale, 7, localDir, new Tracer)
  private lazy val job = Db.build(Workload.Job, Scale, 11, localDir, new Tracer)

  override def afterAll(): Unit = {
    if (snb != null) snb.spark.stop()
    super.afterAll()
  }

  /** A serial-engine result as a DataFrame, typed by its first non-null values. */
  private def toDf(db: Db, in: Inter): DataFrame = {
    val fields = in.schema.indices.map { i =>
      val t = in.rows.iterator.map(_(i)).find(_ != null) match {
        case Some(_: Long)   => LongType
        case Some(_: Double) => DoubleType
        case _               => StringType
      }
      StructField(in.schema(i), t, nullable = true)
    }
    val rows = new java.util.ArrayList[Row]()
    in.rows.foreach(r => rows.add(Row.fromSeq(r.toSeq)))
    db.spark.createDataFrame(rows, StructType(fields))
  }

  for ((name, db) <- Seq("snb" -> (() => snb), "job" -> (() => job)))
    test(s"$name: the Duck-config reference matches the DuckDB oracle") {
      val d = db()
      val duck = d.workload.engines(d).head
      assert(duck.name == "duck")
      d.workload.queries(Scale).foreach { q =>
        val tables = q.refs.map(_.table).distinct.map(t => t -> d.cat.raw(t))
        Oracle.assertEquivalent(toDf(d, duck.exec(q)._1), QueryIR.toSql(q, d.cat.rawMap), tables: _*)
      }
    }

  test("the same seed gives the same data digest and rid_mem_mb; another seed does not") {
    val again = Db.build(Workload.Snb, Scale, 7, localDir, new Tracer)
    assert(again.dataDigest == snb.dataDigest)
    assert(again.ridMemMb == snb.ridMemMb)
    val other = Db.build(Workload.Snb, Scale, 8, localDir, new Tracer)
    assert(other.dataDigest != snb.dataDigest)
  }

  test("a wrong result and an exception are counted as failed executions") {
    val engines = Workload.Snb.engines(snb)
    val duck = engines.head
    val wrong = new Engine("wrong", q => {
      val (in, cs) = duck.exec(q)
      (new Inter(in.schema, in.rows :+ new Array[Any](in.schema.size)), cs)
    })
    val throws = new Engine("throws", _ => sys.error("boom"))
    val qs = Workload.Snb.queries(Scale).toIndexedSeq
    for ((bad, note) <- Seq(wrong -> "digest", throws -> "boom")) {
      val runner = new Runner(engines :+ bad, qs, new Tracer)
      runner.round(0, record = false)
      assert(runner.attempted == 4L * qs.size)
      assert(runner.failed == qs.size.toLong)
      assert(runner.failures.forall(f => f.startsWith(s"${bad.name}/") && f.contains(note)))
    }
  }

  test("a tail percentile leaves at least ten passes beyond its rank") {
    for (n <- 11 to 200) {
      val p = Stats.tailPercentile(n)
      val rank = math.ceil(p * n / 100.0).toInt
      assert(n - rank >= 10 && math.ceil((p + 1) * n / 100.0).toInt > n - 10, s"n=$n p=$p")
    }
  }

  test("a span's self time excludes its children") {
    val t = new Tracer
    t.enabled = true
    t.span("outer") { t.span("inner")(Thread.sleep(20)); Thread.sleep(5) }
    val Seq(outer, inner) = t.all.sortBy(_.id)
    val self = t.selfNs
    assert(inner.parent == outer.id)
    assert(self(outer.id) == outer.durNs - inner.durNs)
    assert(self(inner.id) == inner.durNs)
  }
}
