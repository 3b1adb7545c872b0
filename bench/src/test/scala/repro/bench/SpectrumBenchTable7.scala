package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.columnar.ColumnarExec
import repro.imdb.JobQueries

/** Table 7 (and the Figure 6 robustness claim, as counts): enumerate
  * connected left-deep join orders for Q1a–Q6b, run each as a value-join
  * plan (P_d) and as its predefined version (P_d*), and compare the
  * rule-based GRainDB plan P*_Duck with the best enumerated P*_opt.
  */
class SpectrumBenchTable7 extends AnyFunSuite {

  private val OrderCap = 40 // deterministic first-k connected orders

  test("Table 7: P*_Duck vs P*_opt over enumerated join orders") {
    val cat = BenchData.imdbCat
    val store = BenchData.imdbStore
    val duck  = new ColumnarExec(store, cat, GrainConfig.Duck)
    val grain = new ColumnarExec(store, cat, GrainConfig.Full)

    case class Row(name: String, pDuckStar: Double, pOptStar: Double,
                   duckTimes: Seq[Double], grainTimes: Seq[Double])

    val rows = JobQueries.spectrumNames.map { name =>
      val q = JobQueries.byName(name)
      val orders = QueryIR.enumerateOrders(q, OrderCap)
      grain.run(q); duck.run(q) // JIT warm-up
      val pDuckStar = Bench.timeMs(warmup = 1, runs = 3)(grain.run(q))
      val timed = orders.map { order =>
        val pinned = q.copy(planOpt = Some(QueryIR.leftDeep(order)))
        val d = Bench.timeMs(warmup = 1, runs = 1)(duck.run(pinned))
        val g = Bench.timeMs(warmup = 1, runs = 1)(grain.run(pinned))
        (d, g)
      }
      Row(name, pDuckStar, timed.map(_._2).min, timed.map(_._1), timed.map(_._2))
    }

    val sb = new StringBuilder
    sb ++= "== Table 7: rule-based P*_Duck vs best enumerated P*_opt (ms) ==\n"
    sb ++= f"${"query"}%-6s ${"P*_Duck"}%9s ${"P*_opt"}%9s ${"headroom"}%9s" +
      "   | paper: P*_Duck P*_opt\n"
    rows.foreach { r =>
      val p = PaperNumbers.spectrum.get(r.name)
        .map { case (d, o) => f"$d%.0f $o%.0f" }.getOrElse("")
      sb ++= f"${r.name}%-6s ${r.pDuckStar}%9.1f ${r.pOptStar}%9.1f " +
        f"${r.pDuckStar / r.pOptStar}%8.1fx   | paper: $p\n"
    }
    // Figure-6 style: count plans under the SAME absolute cutoff for both
    // systems (the paper: "60 plans ≤200ms under predefined joins, none with
    // value-based joins"). Cutoff = 2x the best value-join plan.
    sb ++= "\n== Figure-6-style robustness: plans under 2x the best DUCK plan ==\n"
    sb ++= f"${"query"}%-6s ${"duckGood"}%9s ${"grainGood"}%10s ${"plans"}%6s\n"
    def good(r: Row): (Int, Int) = {
      val cutoff = 2 * r.duckTimes.min
      (r.duckTimes.count(_ <= cutoff), r.grainTimes.count(_ <= cutoff))
    }
    rows.foreach { r =>
      val (d, g) = good(r)
      sb ++= f"${r.name}%-6s $d%9d $g%10d ${r.duckTimes.size}%6d\n"
    }
    val totDuckGood = rows.map(good(_)._1).sum
    val totGrainGood = rows.map(good(_)._2).sum
    sb ++= f"\ntotal plans under the cutoff: duck $totDuckGood%d vs grain $totGrainGood%d " +
      "(sip widens the set of good plans)\n"
    Bench.report("table7_spectrum.txt", sb.toString)

    assert(totGrainGood > totDuckGood,
      "predefined joins must enlarge the set of plans under the absolute cutoff")

    // Shape: the rule-based plan is competitive with the enumerated best
    // (paper found >2x headroom only on a few queries).
    val headrooms = rows.map(r => r.pDuckStar / math.max(0.1, r.pOptStar))
    assert(Bench.percentile(headrooms, 50) < 4.0,
      s"rule-based plans should be broadly competitive, got $headrooms")
  }
}
