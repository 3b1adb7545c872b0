package grainperf

/** Order statistics over per-pass samples. */
object Stats {
  /** Nearest-rank percentile, `p` in (0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val rank = math.min(s.size, math.max(1, math.ceil(p / 100.0 * s.size).toInt))
    s(rank - 1)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest whole percentile whose nearest rank leaves at least `beyond`
    * samples above it, so a tail figure always rests on that many passes.
    */
  def tailPercentile(n: Int, beyond: Int = 10): Int = {
    require(n > beyond, s"a tail needs more than $beyond samples, got $n")
    (99 to 1 by -1).find(p => math.ceil(p * n / 100.0) <= n - beyond).get
  }
}
