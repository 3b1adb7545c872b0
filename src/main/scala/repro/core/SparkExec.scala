package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** IR → Spark DataFrame executor: interprets the plan [[GrainPlanner]]
  * lowers. Every config scans the catalog's frozen extended tables, the one
  * stored copy of each table, so only the plan differs. Under
  * [[GrainConfig.Duck]] it is the vanilla-DuckDB analogue — value-based
  * equality joins over the extended tables' own columns, full sequential
  * scans. Under the other steps it is the GRainDB analogue: joins run on the
  * lowered RID keys, and each join node's sideways steps (SJoin §4,
  * SJoinIdxR §5.1, the merged join's mask §5.2) become row-bitmask filters
  * on probe-side scans; merged joins read their pairs from the extended
  * index (SJoinIdxM §5.2).
  *
  * Execution is two-phase: the build side runs (and is persisted) before
  * its bitmasks are built and the probe side is constructed. That costs a
  * pass DuckDB does not pay, so this executor alone gates SJoin and
  * SJoinIdxR steps on an estimate of their benefit, once, when it makes a
  * query's plan.
  *
  * The catalog must be frozen and indexed before the executor is made: a
  * query's plan is made on its first run, or first [[plan]] request, and
  * kept for every later one.
  */
final class SparkExec(cat: GrainCatalog, cfg: GrainConfig) {
  private val plans = mutable.HashMap[Query, PhysPlan]()

  /** `q` lowered under this executor's config, without the steps the sip
    * benefit gate drops: the plan every run of `q` executes. */
  def plan(q: Query): PhysPlan = plans.getOrElseUpdate(q, gated(q, GrainPlanner.lower(q, cfg, cat)))

  // In DuckDB sip is free: the hash build materializes the build side
  // anyway. Our two-phase Spark emulation pays an extra pass, so we pass
  // information only when it can pay for itself: the estimated build
  // cardinality must not exceed the probe table's size. Estimates use
  // textbook FK-semijoin selectivity over the lowered plan. The merged
  // join's mask is not gated.
  private def gated(q: Query, low: PhysPlan): PhysPlan = {
    def estLeaf(alias: String): Double = {
      val r = q.ref(alias)
      val n = cat.rows(r.table).toDouble
      if (r.pred.isEmpty) n
      else if (cat.pk(r.table).flatMap(r.pointKey).isDefined) 1.0
      else math.max(1.0, n / 20.0)
    }
    // `p` without its gated steps, and its estimated rows.
    def gate(p: PhysPlan): (PhysPlan, Double) = p match {
      case ScanLeaf(a) => (p, estLeaf(a))
      case j: JoinNode =>
        val (build, el) = gate(j.build); val (probe, er) = gate(j.probe)
        val steps = j.steps.filter(s =>
          s.isInstanceOf[MapToOther] || el <= cat.rows(q.ref(s.target).table).toDouble)
        val est = j.keys.headOption.flatMap(_.rewrite) match {
          case Some(Rewrites.FkPk(fkAlias, _, pkAlias, _)) =>
            val pkRows = cat.rows(q.ref(pkAlias).table).toDouble
            val (fkEst, pkEst) = if (j.build.aliases.contains(fkAlias)) (el, er) else (er, el)
            math.max(1.0, fkEst * (pkEst / pkRows))
          case Some(fkfk: Rewrites.FkFk) =>
            val pTable = cat.predefined
              .find(pj => pj.fTable == q.ref(fkfk.aAlias).table && pj.fkCol == fkfk.aFkCol)
              .map(pj => cat.rows(pj.pTable).toDouble).getOrElse(math.max(el, er))
            math.max(1.0, el * er / pTable)
          case None =>
            if (j.keys.isEmpty) el * er else math.max(el, er)
        }
        (j.copy(build = build, probe = probe, steps = steps), est)
    }
    gate(low)._1
  }

  def run(q: Query): (DataFrame, QueryMetrics) = {
    val m = new QueryMetrics
    val persisted = mutable.ArrayBuffer[DataFrame]()
    try {
      val low = plan(q)
      val scanFilters = mutable.Map[String, mutable.ArrayBuffer[RowMask]]()
      low.mergedAway.foreach(m.scanned(_) = 0L) // merged relationships are never scanned

      def rowsOf(alias: String): Int = cat.rows(q.ref(alias).table).toInt

      // Materialized-RID scanning (§4 step 1): a scan reads the columns the
      // query reads and those the plan names for its alias: join keys, step
      // sources (rid_<fk> for rewritten edges) and the __rid a step filters
      // on, which covers a merged join's ends (its MapToOther step's source
      // and target). A value-join plan names no RID column, so its scans
      // read none.
      val keyCols: Map[String, Seq[String]] = low.joins.flatMap { j =>
        j.keys.flatMap(k => Seq(k.build, k.probe)) ++ j.steps.flatMap(s => Seq(s.from, Key(s.target, "__rid")))
      }.groupMap(_.alias)(_.col)

      def scan(alias: String): DataFrame = {
        val t = q.ref(alias).table
        val needed = (q.readCols(alias) ++ keyCols.getOrElse(alias, Nil)).distinct
        var df = cat.ext(t).select(needed.map(c => col(c).as(Key(alias, c).name)): _*)
        q.ref(alias).pred.foreach(p => df = df.filter(Pred.toColumn(p, alias + "_")))
        // Scan accounting + ScanSJ semijoin filters.
        val filters = scanFilters.getOrElse(alias, mutable.ArrayBuffer.empty)
        if (filters.isEmpty) {
          m.scanned(alias) = cat.rows(t)
        } else {
          // Row-bitmask granularity, like Table 4's scan reductions: the
          // count of tuples surviving the ScanSJ semijoin.
          val combined = filters.reduce(_ and _)
          m.scanned(alias) = combined.cardinality.toLong
          df = Bitmap.semiJoinFilter(df, Key(alias, "__rid").name, combined)
        }
        df
      }

      def exec(p: PhysPlan): DataFrame = p match {
        case ScanLeaf(a) => scan(a)
        case j: JoinNode =>
          val dfL = exec(j.build)
          // A build-side key's row mask is one Spark job per node: a merged
          // join's MapToOther step and its index pairs share it.
          val masks = mutable.Map[(Key, Int), RowMask]()
          def maskOf(k: Key)(numRows: Int): RowMask = masks.getOrElseUpdate((k, numRows), {
            persisted += dfL.persist()
            Bitmap.fromColumn(dfL, k.name, numRows)
          })
          // Sideways information passing from the build side before the
          // probe side is constructed.
          j.steps.foreach { s =>
            scanFilters.getOrElseUpdate(s.target, mutable.ArrayBuffer.empty) +=
              s.mask(maskOf(s.from), rowsOf(s.target))
          }

          val dfR = exec(j.probe)
          def keyCond(k: JoinKey) = col(k.build.name) === col(k.probe.name)

          j.kind match {
            case IdxMerge(from, idx, to, _) =>
              // SJoinIdxM (§5.2): join through index pairs, F never scanned.
              val keys = maskOf(from)(idx.nKeys).toArray
              val (ps, os) = idx.walk(keys)
              val spark = cat.spark
              import spark.implicits._
              val pairs = ps.map(keys(_)).zip(os).toSeq.toDF("__mk", "__mo")
              val viaPairs = dfL.join(pairs, dfL(from.name) === pairs("__mk"))
              var joined = viaPairs.join(dfR, viaPairs("__mo") === dfR(to.name))
                .drop("__mk", "__mo")
              j.keys.foreach(k => joined = joined.filter(keyCond(k)))
              joined
            case CrossJoin => dfL.crossJoin(dfR)
            case HashJoin  => dfL.join(dfR, j.keys.map(keyCond).reduce(_ && _))
          }
      }

      val spj = exec(low)
      val result = q.agg match {
        case None => spj.select(q.out.map(oc => col(oc.name)): _*)
        case Some(a) =>
          def isFloat(oc: OutCol): Boolean = QueryIR.isFloatCol(cat.ext(q.ref(oc.alias).table), oc.col)
          // Floating sums/avgs are computed over integer cents so the result
          // is exact and independent of summation order — otherwise Spark and
          // the DuckDB oracle disagree in the last digit.
          def cents(oc: OutCol) = round(col(oc.name) * 100)
          val aggCols = a.aggs.map { ae =>
            ae.fn match {
              case "countstar" => count(lit(1)).as(ae.as)
              case "count"     => count(col(ae.of.get.name)).as(ae.as)
              case "sum" if isFloat(ae.of.get) =>
                round(sum(cents(ae.of.get)), 0).cast("long").as(ae.as)
              case "sum"       => sum(col(ae.of.get.name)).as(ae.as)
              case "avg" if isFloat(ae.of.get) =>
                round(avg(cents(ae.of.get)), 0).cast("long").as(ae.as)
              case "avg"       => round(avg(col(ae.of.get.name)), 1).as(ae.as)
              case "min"       => min(col(ae.of.get.name)).as(ae.as)
              case "max"       => max(col(ae.of.get.name)).as(ae.as)
            }
          }
          if (a.groupBy.isEmpty) spj.agg(aggCols.head, aggCols.tail: _*)
          else spj.groupBy(a.groupBy.map(oc => col(oc.name)): _*).agg(aggCols.head, aggCols.tail: _*)
      }
      // Materialize before unpersisting the sip build sides it depends on.
      val rows = result.collect()
      val out = cat.spark.createDataFrame(
        new java.util.ArrayList[org.apache.spark.sql.Row](java.util.Arrays.asList(rows: _*)),
        result.schema)
      (out, m)
    } finally {
      persisted.foreach(_.unpersist(blocking = false))
    }
  }

}
