package repro.core

import java.nio.file.{Files, Paths, StandardOpenOption}
import java.nio.charset.StandardCharsets

/** Benchmark timing + reporting helpers shared by the bench suites. All
  * timings are wall-clock over full materialization (collect), averaged
  * after warm-up, mirroring the paper's "average of five successive runs
  * after a warm-up" protocol (scaled down to keep the suite runnable in CI).
  */
object Bench {
  /** Milliseconds for `body`, averaged over `runs` after `warmup` runs. */
  def timeMs(warmup: Int = 1, runs: Int = 3)(body: => Unit): Double = {
    var i = 0
    while (i < warmup) { body; i += 1 }
    val samples = (0 until runs).map { _ =>
      val t0 = System.nanoTime()
      body
      (System.nanoTime() - t0) / 1e6
    }
    samples.sum / runs
  }

  /** Percentile (nearest-rank) of a sample. */
  def percentile(xs: Seq[Double], p: Int): Double = {
    require(xs.nonEmpty)
    val sorted = xs.sorted
    val idx = math.min(sorted.size - 1, math.max(0, math.ceil(p / 100.0 * sorted.size).toInt - 1))
    sorted(idx)
  }

  val PercentilePoints: Seq[Int] = Seq(5, 25, 50, 75, 95)

  def percentileRow(name: String, xs: Seq[Double]): String =
    f"$name%-12s " + PercentilePoints.map(p => f"${percentile(xs, p)}%10.1f").mkString(" ")

  /** Append a report to results/<file> (created fresh per run) and stdout. */
  def report(file: String, content: String): Unit = {
    val dir = Paths.get("results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(file), content.getBytes(StandardCharsets.UTF_8),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
    println(content)
  }
}
