package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.StepCounts
import repro.core._
import repro.tpch.TpchQueries

/** Table 9: TPC-H-lite sanity check — predefined joins must bring no major
  * overheads and small wins where FK joins follow selective filters.
  */
class TpchBenchTable9 extends AnyFunSuite {

  test("Table 9: TPC-H runtimes, DuckDB-mode vs GRainDB-mode") {
    val cat = BenchData.tpchCat
    val duck  = new SparkExec(cat, GrainConfig.Duck)
    val grain = new SparkExec(cat, GrainConfig.Full)

    case class Row(name: String, duckMs: Double, grainMs: Double, ridJoins: Int) {
      def factor: Double = duckMs / grainMs
    }
    val rows = TpchQueries.queries.map { q =>
      val duckMs  = Bench.timeMs(warmup = 1, runs = 2)(duck.run(q))
      val grainMs = Bench.timeMs(warmup = 1, runs = 2)(grain.run(q))
      Row(q.name, duckMs, grainMs, StepCounts.of(grain.plan(q))._4)
    }

    val sb = new StringBuilder
    sb ++= "== Table 9: TPC-H-lite per-query runtimes (ms) ==\n"
    sb ++= f"${"query"}%-5s ${"duck"}%9s ${"grain"}%9s ${"factor"}%8s ${"ridJoins"}%9s" +
      "   | paper: duck grain factor\n"
    rows.foreach { r =>
      val p = PaperNumbers.tpch.get(r.name).map { case (d, g, f) =>
        f"$d%.1f $g%.1f $f%.1fx"
      }.getOrElse("")
      sb ++= f"${r.name}%-5s ${r.duckMs}%9.1f ${r.grainMs}%9.1f ${r.factor}%7.1fx " +
        f"${r.ridJoins}%9d   | paper: $p\n"
    }
    val med = (xs: Seq[Double]) => Bench.percentile(xs, 50)
    val replaced = rows.filter(_.ridJoins > 0)
    val medFactor = Bench.percentile(replaced.map(_.factor), 50)
    sb ++= f"\nqueries with predefined joins replaced: ${replaced.size} of 22 (paper: 13)\n"
    sb ++= f"median factor over those: $medFactor%.2fx (paper: 1.1x)\n"
    sb ++= f"medians: duck ${med(rows.map(_.duckMs))}%.1f  grain ${med(rows.map(_.grainMs))}%.1f\n"
    Bench.report("table9_tpch.txt", sb.toString)

    // Shape: no catastrophic regression anywhere, gains stay modest.
    rows.foreach(r => assert(r.factor > 0.5,
      f"${r.name}: grain ${r.grainMs}%.1fms vs duck ${r.duckMs}%.1fms is a >2x regression"))
    assert(replaced.size >= 10, "most join queries should have predefined joins")
    assert(medFactor > 0.8, "median factor must stay near 1x")
  }
}
