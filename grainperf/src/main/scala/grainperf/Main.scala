package grainperf

import java.lang.management.ManagementFactory
import java.nio.file.Paths
import scala.collection.mutable

/** Benchmark entry point: one workload, one seed, one measurement window.
  *
  * {{{
  * Main --workload snb|job --seed N --seconds S --trace 0|1 --work-dir DIR
  * }}}
  *
  * The run builds the database several times (the median is `setup_s`),
  * checks a first pass of every engine against the Duck config, stops Spark
  * (the serial engines read only the ColumnStore and the catalog's maps),
  * warms up, then times whole passes of the query list with engines
  * interleaved pass by pass for `--seconds`. Every pass's results are
  * checked after its timing ends. The last stdout line is the JSON result;
  * the lines before it are a readable report.
  */
object Main {
  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 3
  /** Rounds run before timing starts. */
  val WarmRounds = 5
  /** Timed rounds run even past the window, so that a tail percentile has
    * ten passes beyond it. */
  val MinRounds = 21

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val o = Opts(need("workload"), need("seed").toLong, need("seconds").toInt, trace,
      m.getOrElse("work-dir", "grainperf/out"))
    require(o.seconds >= 1, "--seconds must be at least 1")
    o
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workload.byName(o.workload)
    val tracer = new Tracer
    tracer.enabled = o.trace
    val report = run(w, w.scale, o, tracer)
    report.lines.foreach(println)
    if (o.trace) {
      val f = Paths.get(o.workDir, s"trace-${w.name}-seed${o.seed}.jsonl")
      tracer.write(f)
      println(s"spans: ${tracer.count} written to $f")
    }
    println(report.json)
  }

  final class Report(val lines: Seq[String], val json: String)

  def run(w: Workload, scale: Double, o: Opts, tracer: Tracer): Report = {
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val setupS = mutable.ArrayBuffer[Double]()
    val setupMs = mutable.ArrayBuffer[Map[String, Double]]()
    val digests = mutable.ArrayBuffer[String]()
    val localDir = Paths.get(o.workDir, "spark").toAbsolutePath.toString
    var db: Db = null
    (1 to SetupRepeats).foreach { i =>
      if (db != null) { db.spark.stop(); db = null; System.gc() }
      // The first set-up counts from process start; later ones from their call.
      val t0 = if (i == 1) jvmStart else System.currentTimeMillis()
      db = tracer.span("setup")(Db.build(w, scale, o.seed, localDir, tracer))
      setupS += (System.currentTimeMillis() - t0) / 1000.0
      setupMs += db.setupMs
      digests += db.dataDigest
    }
    val setups = digests.distinct.size == 1
    val runner = new Runner(w.engines(db), w.queries(scale).toIndexedSeq, tracer)

    // Check pass: fixes the reference digests, every engine compared to them.
    runner.round(0, record = false)
    db.spark.stop()
    tracer.enabled = false
    (1 to WarmRounds).foreach(r => runner.round(r, record = false))

    val deadline = System.nanoTime() + o.seconds * 1000000000L
    var r = 0
    while (System.nanoTime() < deadline || r < MinRounds) {
      // The traced run alternates traced and untraced rounds: the difference
      // of their medians is the tracing overhead.
      tracer.enabled = o.trace && r % 2 == 0
      runner.round(WarmRounds + 1 + r, record = true)
      r += 1
    }
    tracer.enabled = false

    val res = new Results(db, runner, setupS.toSeq, setupMs.toSeq)
    val correct = setups && runner.failed == 0
    val head = Seq(
      s"workload ${w.name} scale $scale seed ${o.seed} master ${Db.Master} " +
        s"partitions ${Db.Partitions} rounds $r (+$WarmRounds warm-up) trace ${o.trace}",
      s"data digest ${digests.last}",
      s"set-ups ${setupS.map(s => f"$s%.3f").mkString(" ")} s; data digests agree: $setups",
      s"executions ${runner.attempted}, failed ${runner.failed}") ++
      runner.failures.map("  failure " + _)
    val metrics = if (o.trace) res.perLayer else res.endToEnd
    new Report(head ++ res.summary(o.trace), Results.json(correct, runner.attempted, runner.failed, metrics))
  }
}
