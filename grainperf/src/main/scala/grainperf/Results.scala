package grainperf

import grainperf.Stats.{median, percentile, tailPercentile}

final case class Metric(name: String, value: Double, unit: String)

/** Turns a finished run into the end-to-end and per-layer metrics. */
final class Results(db: Db, runner: Runner, setupS: Seq[Double], setupMs: Seq[Map[String, Double]]) {
  private def has(e: String) = runner.engines.exists(_.name == e)
  private def passes(e: String, traced: Boolean) = runner.passes(e).filter(_.traced == traced)
  /** Untraced pass times at the kernel's nominal speed: every pass of an
    * untraced run, half of a traced one. */
  private def passMs(e: String) = passes(e, traced = false).map(p => p.ms * p.speed)
  private def tail(xs: Seq[Double]) = percentile(xs, tailPercentile(xs.size).toDouble)
  private def last(e: String, counter: String): Double =
    if (!has(e)) 0.0 else runner.passes(e).last.counters.getOrElse(counter, 0L).toDouble
  /** Median over traced passes; 0 for an engine the workload does not run. */
  private def tracedMedian(e: String, f: PassSample => Double): Double =
    if (!has(e)) 0.0 else median(passes(e, traced = true).map(f))

  def endToEnd: Seq[Metric] = Seq(
    Metric("setup_s", median(setupS), "s"),
    Metric("grain_pass_ms_p50", median(passMs("grain")), "ms"),
    Metric("grain_pass_ms_tail", tail(passMs("grain")), "ms"),
    Metric("duck_pass_ms_p50", median(passMs("duck")), "ms"),
    Metric("duck_pass_ms_tail", tail(passMs("duck")), "ms"),
    Metric("rid_mem_mb", db.ridMemMb, "MB"))

  def perLayer: Seq[Metric] = {
    def setup(k: String) = Metric(k + "_ms", median(setupMs.map(_(k))), "ms")
    val csr = db.ridIndices
    val traced = passes("grain", traced = true).map(p => p.ms * p.speed)
    Seq(
      setup("setup.spark"), setup("setup.catalog"), setup("setup.csr"), setup("setup.store"),
      Metric("rid.columns", db.cat.predefined.size.toDouble, "count"),
      Metric("rid.dangling", db.danglingFks.toDouble, "count"),
      Metric("csr.entries", csr.map(_.nEntries.toLong).sum.toDouble, "count"),
      Metric("csr.bytes", csr.map(_.sizeBytes).sum.toDouble, "B"),
      Metric("store.rows", db.store.tables.values.map(_.numRows.toLong).sum.toDouble, "count"),
      Metric("duck.query_ms", tracedMedian("duck", p => p.queryMs * p.speed), "ms"),
      Metric("duck.scanned_rows", last("duck", "scanned_rows"), "count"),
      Metric("duck.probes", last("duck", "probes"), "count"),
      Metric("duck.alloc_mb", tracedMedian("duck", _.allocBytes / 1e6), "MB"),
      Metric("grain.query_ms", tracedMedian("grain", p => p.queryMs * p.speed), "ms"),
      Metric("grain.scanned_rows", last("grain", "scanned_rows"), "count"),
      Metric("grain.zones_skipped", last("grain", "zones_skipped"), "count"),
      Metric("grain.index_lookups", last("grain", "index_lookups"), "count"),
      Metric("grain.probes", last("grain", "probes"), "count"),
      Metric("grain.alloc_mb", tracedMedian("grain", _.allocBytes / 1e6), "MB"),
      Metric("scan_reduction_x", last("duck", "scanned_rows") / last("grain", "scanned_rows"), "x"),
      Metric("gf.query_ms", tracedMedian("gf", p => p.queryMs * p.speed), "ms"),
      Metric("gf.index_lookups", last("gf", "index_lookups"), "count"),
      Metric("gf.extended_tuples", last("gf", "extended_tuples"), "count"),
      Metric("gf.property_reads", last("gf", "property_reads"), "count"),
      Metric("jvm.gc_ms", runner.gcMsPerRound.sum / runner.gcMsPerRound.size, "ms"),
      Metric("check_ms", median(runner.checkMs.toSeq), "ms"),
      Metric("failed_frac", runner.failed.toDouble / runner.attempted, "ratio"),
      Metric("trace.overhead_ms", median(traced) - median(passMs("grain")), "ms"))
  }

  /** Readable lines: quartiles and sample counts next to every median. */
  def summary(trace: Boolean): Seq[String] = {
    val engineLines = runner.engines.map(_.name).flatMap { e =>
      val xs = passMs(e)
      val raw = passes(e, traced = false).map(_.ms)
      if (xs.size <= 10) Seq(s"${e}_pass_ms: only ${xs.size} untraced passes")
      else {
        val p = tailPercentile(xs.size)
        Seq(f"${e}_pass_ms p25 ${percentile(xs, 25)}%.3f p50 ${median(xs)}%.3f " +
          f"p75 ${percentile(xs, 75)}%.3f tail p$p ${percentile(xs, p.toDouble)}%.3f (n=${xs.size}); " +
          f"raw wall ms p25 ${percentile(raw, 25)}%.3f p50 ${median(raw)}%.3f p75 ${percentile(raw, 75)}%.3f")
      }
    }
    val counterLines = runner.engines.map(_.name).map(e =>
      s"${e} counters per pass: " + runner.passes(e).last.counters.map { case (k, v) => s"$k=$v" }.mkString(" "))
    val setupLine = f"setup_s p25 ${percentile(setupS, 25)}%.3f p50 ${median(setupS)}%.3f " +
      f"p75 ${percentile(setupS, 75)}%.3f (n=${setupS.size})"
    val scanLine = s"scan_reduction_x bases: duck ${last("duck", "scanned_rows").toLong} rows, " +
      s"grain ${last("grain", "scanned_rows").toLong} rows per pass"
    // Printed only here: gf runs on snb alone, and failed_frac is 0 on a
    // correct run, so neither can be a JSON end-to-end metric.
    val reportOnly =
      (if (has("gf")) Seq(Metric("gf_pass_ms_p50", median(passMs("gf")), "ms")) else Nil) :+
        Metric("failed_frac", runner.failed.toDouble / runner.attempted, "ratio")
    val metricLines = (if (trace) perLayer else endToEnd ++ reportOnly).map(m => s"${m.name} ${m.value} ${m.unit}")
    val kernel = runner.samples.map(_.kernelMs).toSeq
    val speedLine = f"calibration kernel p25 ${percentile(kernel, 25)}%.3f p50 ${median(kernel)}%.3f " +
      f"p75 ${percentile(kernel, 75)}%.3f ms (n=${kernel.size}); pass times are scaled to ${Calibration.NominalMs}%.1f ms"
    Seq(setupLine, speedLine) ++ engineLines ++ counterLines ++ Seq(scanLine) ++ metricLines
  }
}

object Results {
  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite metric value $v")
    v.toString
  }

  def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
