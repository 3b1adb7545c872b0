package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Ablation switches (§7.3.1): Duck = all off; GRainDB-JM-RSJ = rid joins
  * only; GRainDB-JM = + reverse semijoins; GRainDB = + join merging.
  */
final case class GrainConfig(
    ridJoins: Boolean = true,
    sip: Boolean = true,
    reverseSemijoin: Boolean = true,
    joinMerge: Boolean = true,
)
object GrainConfig {
  val Duck: GrainConfig = GrainConfig(ridJoins = false, sip = false, reverseSemijoin = false, joinMerge = false)
  val RidOnly: GrainConfig = GrainConfig(sip = true, reverseSemijoin = false, joinMerge = false)
  val NoJm: GrainConfig = GrainConfig(joinMerge = false)
  val Full: GrainConfig = GrainConfig()
}

/** Per-query execution metrics (scanned-tuple accounting drives Table 4's
  * "Scan Reduction" row; zone granularity per §4).
  */
final class QueryMetrics {
  val scanned: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap()
  var sipFilters: Int = 0
  var reverseSemijoins: Int = 0
  var mergedJoins: Int = 0
  var ridJoins: Int = 0
  def totalScanned: Long = scanned.values.sum
}

/** A join edge replaced by the §5.2 merged join: `a` and `b` are entity
  * aliases previously connected through relationship table `fTable`.
  */
final case class MergedJoin(a: String, b: String, fAlias: String, fTable: String, aFk: String, bFk: String)

/** IR → Spark DataFrame executor.
  *
  * Mode Duck: the vanilla-DuckDB analogue — value-based equality joins over
  * the raw tables, full sequential scans.
  *
  * Mode Grain (via [[GrainConfig]]): the GRainDB analogue — predefined joins
  * execute on RID equality over the extended tables; when the build (left)
  * subtree is the FK side, its materialized RIDs are compacted into row/zone
  * bitmasks and pushed into the probe-side scans (SJoin + ScanSJ, §4); when
  * the build side is the PK side and a RID index exists, the bitmask is
  * mapped through the CSR instead (SJoinIdxR, §5.1); eligible relationship
  * leaves are dropped entirely and replaced by index pairs (SJoinIdxM, §5.2).
  *
  * The left subtree of the pinned plan is always the build side, mirroring
  * the paper's use of the system-chosen order for both systems.
  */
final class SparkExec(cat: GrainCatalog, cfg: GrainConfig) {
  private def grain: Boolean = cfg.ridJoins

  def run(q: Query, planOverride: Option[Plan] = None): (DataFrame, QueryMetrics) = {
    val m = new QueryMetrics
    val persisted = mutable.ArrayBuffer[DataFrame]()
    try {
      val plan0 = planOverride.getOrElse(q.plan)
      val (joins, merged, plan) =
        JoinMerge.preprocess(q, plan0, cat, enabled = grain && cfg.joinMerge)
      val scanFilters = mutable.Map[String, mutable.ArrayBuffer[RowMask]]()

      def pfx(alias: String, c: String) = s"${alias}_$c"

      def rowsOf(alias: String): Int = cat.rows(q.ref(alias).table).toInt

      def isRewritten(j: JoinPred): Option[Rewrites.EdgeRewrite] =
        if (!grain) None else Rewrites.resolve(cat, q, j)

      // -- sip benefit gate ------------------------------------------------
      // In DuckDB sip is free: the hash build materializes the build side
      // anyway. Our two-phase Spark emulation pays an extra pass, so we pass
      // information only when it can pay for itself: the estimated build
      // cardinality must not exceed the probe table's size. Estimates use
      // textbook FK-semijoin selectivity over the pinned plan.
      def estLeaf(alias: String): Double = {
        val t = q.ref(alias).table
        val n = cat.rows(t).toDouble
        q.ref(alias).pred match {
          case None => n
          case Some(p) =>
            val pointPk = cat.pk(t).exists(k => p match {
              case Cmp(c, OpEq, _) => c == k
              case AndP(ps)        => ps.exists { case Cmp(c, OpEq, _) => c == k; case _ => false }
              case _               => false
            })
            if (pointPk) 1.0 else math.max(1.0, n / 20.0)
        }
      }
      def estRows(p: Plan): Double = p match {
        case Lf(a) => estLeaf(a)
        case Jn(l, r) =>
          val el = estRows(l); val er = estRows(r)
          val lSet = l.aliases.toSet; val rSet = r.aliases.toSet
          val edge = joins.find(j => (lSet(j.a) && rSet(j.b)) || (lSet(j.b) && rSet(j.a)))
          edge.flatMap(isRewritten) match {
            case Some(Rewrites.FkPk(fkAlias, _, pkAlias, _)) =>
              val pkRows = cat.rows(q.ref(pkAlias).table).toDouble
              val (fkEst, pkEst) = if (lSet(fkAlias)) (el, er) else (er, el)
              math.max(1.0, fkEst * (pkEst / pkRows))
            case Some(fkfk: Rewrites.FkFk) =>
              val pTable = cat.predefined
                .find(pj => pj.fTable == q.ref(fkfk.aAlias).table && pj.fkCol == fkfk.aFkCol)
                .map(pj => cat.rows(pj.pTable).toDouble).getOrElse(math.max(el, er))
              math.max(1.0, el * er / pTable)
            case None =>
              if (edge.isEmpty) el * er else math.max(el, er)
          }
      }
      def sipWorthIt(buildPlan: Plan, probeAlias: String): Boolean =
        estRows(buildPlan) <= cat.rows(q.ref(probeAlias).table).toDouble

      def scan(alias: String): DataFrame = {
        val t = q.ref(alias).table
        val base = if (grain) cat.ext(t) else cat.raw(t)
        val needed: Seq[String] =
          if (!grain) q.neededCols(alias)
          else {
            // Materialized-RID scanning (§4 step 1): scan rid_<fk> columns for
            // rewritten edges; the original FK/PK columns only if the query
            // projects or filters them. __rid always, it is virtual.
            val rewrittenCols = joins.filter(_.touches(alias)).flatMap { j =>
              isRewritten(j) match {
                case Some(Rewrites.FkPk(fkAlias, ridCol, _, _)) =>
                  if (fkAlias == alias) Seq(ridCol) else Seq.empty // pk side: __rid
                case Some(fkfk: Rewrites.FkFk) =>
                  if (fkfk.aAlias == alias) Seq(fkfk.aRidCol) else Seq(fkfk.bRidCol)
                case None => Seq(j.colOf(alias))
              }
            }
            val outPredCols = q.out.filter(_.alias == alias).map(_.col) ++
              q.agg.toSeq.flatMap(a => a.groupBy.filter(_.alias == alias).map(_.col) ++
                a.aggs.flatMap(_.of).filter(_.alias == alias).map(_.col)) ++
              q.ref(alias).pred.toSeq.flatMap(_.cols)
            (outPredCols ++ rewrittenCols ++ Seq("__rid")).distinct
          }
        var df = base.select(needed.map(c => col(c).as(pfx(alias, c))): _*)
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
          df = Bitmap.semiJoinFilter(df, pfx(alias, "__rid"), combined)
        }
        df
      }

      def maskOf(df: DataFrame, colName: String, numRows: Int): RowMask = {
        persisted += df.persist()
        Bitmap.fromColumn(df, colName, numRows)
      }

      def exec(plan: Plan): DataFrame = plan match {
        case Lf(a) => scan(a)
        case Jn(l, r) =>
          val dfL = exec(l)
          val lSet = l.aliases.toSet
          val rSet = r.aliases.toSet
          val connecting = joins.filter(j =>
            (lSet(j.a) && rSet(j.b)) || (lSet(j.b) && rSet(j.a)))
          val connectingMerged = merged.filter(mj =>
            (lSet(mj.a) && rSet(mj.b)) || (lSet(mj.b) && rSet(mj.a)))

          // Sideways information passing from the build (left) side before
          // the probe side is constructed.
          if (grain && cfg.sip) {
            connecting.foreach { j =>
              isRewritten(j).foreach {
                case Rewrites.FkPk(fkAlias, ridCol, pkAlias, fkCol) =>
                  if (lSet(fkAlias)) {
                    // SJoin: F builds; pass its materialized RIDs to ScanSJ(P).
                    if (sipWorthIt(l, pkAlias)) {
                      val mask = maskOf(dfL, pfx(fkAlias, ridCol), rowsOf(pkAlias))
                      scanFilters.getOrElseUpdate(pkAlias, mutable.ArrayBuffer.empty) += mask
                      m.sipFilters += 1
                    }
                  } else if (cfg.reverseSemijoin && sipWorthIt(l, fkAlias)) {
                    // SJoinIdxR: P builds; map P RIDs through the RID index.
                    cat.ridIndex(q.ref(fkAlias).table, fkCol).foreach { idx =>
                      val maskP = maskOf(dfL, pfx(pkAlias, "__rid"), idx.nKeys)
                      scanFilters.getOrElseUpdate(fkAlias, mutable.ArrayBuffer.empty) +=
                        idx.mapToF(maskP, rowsOf(fkAlias))
                      m.reverseSemijoins += 1
                    }
                  }
                case fkfk: Rewrites.FkFk if cfg.reverseSemijoin =>
                  // FK-FK: the build side's materialized RIDs are P RIDs;
                  // map them through the probe relationship's RID index.
                  val (lAlias, lRid, rAlias, rFkCol) =
                    if (lSet(fkfk.aAlias)) (fkfk.aAlias, fkfk.aRidCol, fkfk.bAlias, fkfk.bFkCol)
                    else (fkfk.bAlias, fkfk.bRidCol, fkfk.aAlias, fkfk.aFkCol)
                  if (sipWorthIt(l, rAlias)) {
                    cat.ridIndex(q.ref(rAlias).table, rFkCol).foreach { idx =>
                      val maskP = maskOf(dfL, pfx(lAlias, lRid), idx.nKeys)
                      scanFilters.getOrElseUpdate(rAlias, mutable.ArrayBuffer.empty) +=
                        idx.mapToF(maskP, rowsOf(rAlias))
                      m.reverseSemijoins += 1
                    }
                  }
                case _: Rewrites.FkFk => // no index use allowed in this config
              }
            }
            connectingMerged.foreach { mj =>
              val (aAlias, bAlias, aFk, bFk) =
                if (lSet(mj.a)) (mj.a, mj.b, mj.aFk, mj.bFk) else (mj.b, mj.a, mj.bFk, mj.aFk)
              cat.ridIndex(mj.fTable, aFk).filter(_.extended).foreach { idx =>
                val maskA = maskOf(dfL, pfx(aAlias, "__rid"), idx.nKeys)
                scanFilters.getOrElseUpdate(bAlias, mutable.ArrayBuffer.empty) +=
                  idx.mapToOther(maskA, rowsOf(bAlias))
              }
            }
          }

          val dfR = exec(r)

          def edgeCond(j: JoinPred): org.apache.spark.sql.Column =
            isRewritten(j) match {
              case Some(Rewrites.FkPk(fkAlias, ridCol, pkAlias, _)) =>
                m.ridJoins += 1
                col(pfx(fkAlias, ridCol)) === col(pfx(pkAlias, "__rid"))
              case Some(fkfk: Rewrites.FkFk) =>
                m.ridJoins += 1
                col(pfx(fkfk.aAlias, fkfk.aRidCol)) === col(pfx(fkfk.bAlias, fkfk.bRidCol))
              case None =>
                col(pfx(j.a, j.acol)) === col(pfx(j.b, j.bcol))
            }

          // SJoinIdxM (§5.2): join through index pairs, F never scanned.
          connectingMerged.headOption match {
            case Some(mj) =>
              val (aAlias, bAlias, aFk, _) =
                if (lSet(mj.a)) (mj.a, mj.b, mj.aFk, mj.bFk) else (mj.b, mj.a, mj.bFk, mj.aFk)
              val idx = cat.ridIndex(mj.fTable, aFk)
                .filter(_.extended)
                .getOrElse(sys.error(s"join merge needs extended index on ${mj.fTable}.$aFk"))
              val (ks, os) = idx.pairsFor(maskOf(dfL, pfx(aAlias, "__rid"), idx.nKeys))
              val spark = cat.spark
              import spark.implicits._
              val pairs = ks.zip(os).toSeq.toDF("__mk", "__mo")
              m.mergedJoins += 1
              m.scanned(mj.fAlias) = 0L // F not scanned at all
              val viaPairs = dfL.join(pairs, dfL(pfx(aAlias, "__rid")) === pairs("__mk"))
              var joined = viaPairs.join(dfR, viaPairs("__mo") === dfR(pfx(bAlias, "__rid")))
                .drop("__mk", "__mo")
              connecting.foreach(j => joined = joined.filter(edgeCond(j)))
              joined
            case None =>
              if (connecting.isEmpty) dfL.crossJoin(dfR)
              else dfL.join(dfR, connecting.map(edgeCond).reduce(_ && _))
          }
      }

      val spj = exec(plan)
      val result = q.agg match {
        case None => spj.select(q.out.map(oc => col(oc.name)): _*)
        case Some(a) =>
          def isFloatCol(oc: OutCol): Boolean = {
            val df = cat.raw(q.ref(oc.alias).table)
            df.schema.fields.find(_.name == oc.col).exists(f =>
              f.dataType.typeName == "double" || f.dataType.typeName == "float" ||
                f.dataType.typeName.startsWith("decimal"))
          }
          // Floating sums/avgs are computed over integer cents so the result
          // is exact and independent of summation order — otherwise Spark and
          // the DuckDB oracle disagree in the last digit.
          def cents(oc: OutCol) = round(col(oc.name) * 100)
          val aggCols = a.aggs.map { ae =>
            ae.fn match {
              case "countstar" => count(lit(1)).as(ae.as)
              case "count"     => count(col(ae.of.get.name)).as(ae.as)
              case "sum" if isFloatCol(ae.of.get) =>
                round(sum(cents(ae.of.get)), 0).cast("long").as(ae.as)
              case "sum"       => sum(col(ae.of.get.name)).as(ae.as)
              case "avg" if isFloatCol(ae.of.get) =>
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

/** Join-merging preprocessing (§5.2), shared by the Spark and columnar
  * executors: drop relationship leaves that only facilitate a P1–F–P2 join,
  * replacing their two edges by a [[MergedJoin]]. Requires extended RID
  * indices in both directions (forward/backward adjacency, §5.2) so the
  * merge works regardless of which entity ends up on the build side.
  *
  * A merged edge binds at the join node that first brings P1 and P2
  * together, and the executors join through at most one merged edge per
  * node. So a leaf whose merged edge would bind at a node that already
  * binds another stays in the plan as an ordinary relationship scan.
  */
object JoinMerge {
  def preprocess(q: Query, plan: Plan, cat: GrainCatalog, enabled: Boolean)
      : (Seq[JoinPred], Seq[MergedJoin], Plan) = {
    if (!enabled) return (q.joins, Seq.empty, plan)
    var joins = q.joins
    var merged = List.empty[MergedJoin]
    var p = plan
    val boundNodes = mutable.Set[Set[String]]()
    val outAliases = (q.out.map(_.alias) ++ q.agg.toSeq.flatMap(a =>
      a.groupBy.map(_.alias) ++ a.aggs.flatMap(_.of).map(_.alias))).toSet

    q.refs.foreach { r =>
      val touching = joins.filter(_.touches(r.alias))
      val eligible =
        r.pred.isEmpty && !outAliases(r.alias) && touching.size == 2 && {
          touching.forall { j =>
            val (oAlias, oCol) = j.other(r.alias)
            cat.findPredef(r.table, j.colOf(r.alias), q.ref(oAlias).table, oCol).isDefined
          }
        } && {
          touching.forall(j =>
            cat.ridIndex(r.table, j.colOf(r.alias)).exists(_.extended))
        } && containsLeaf(p, r.alias)
      if (eligible) {
        val Seq(j1, j2) = touching
        val (aAlias, _) = j1.other(r.alias)
        val (bAlias, _) = j2.other(r.alias)
        // Removing leaves keeps every other join node's two sides apart, so
        // the node is named by its leaves in the original plan.
        val node = bindingNode(plan, aAlias, bAlias)
        if (boundNodes.add(node)) {
          merged ::= MergedJoin(aAlias, bAlias, r.alias, r.table, j1.colOf(r.alias), j2.colOf(r.alias))
          joins = joins.filterNot(_.touches(r.alias))
          p = removeLeaf(p, r.alias).getOrElse(p)
        }
      }
    }
    (joins, merged, p)
  }

  /** The leaves of the lowest join node of `p` with `a` and `b` on different
    * sides. */
  private def bindingNode(p: Plan, a: String, b: String): Set[String] = p match {
    case Jn(l, _) if containsLeaf(l, a) && containsLeaf(l, b) => bindingNode(l, a, b)
    case Jn(_, r) if containsLeaf(r, a) && containsLeaf(r, b) => bindingNode(r, a, b)
    case _                                                   => p.aliases.toSet
  }

  private def containsLeaf(p: Plan, alias: String): Boolean = p match {
    case Lf(a)    => a == alias
    case Jn(l, r) => containsLeaf(l, alias) || containsLeaf(r, alias)
  }

  /** Remove leaf `alias` from the tree; None if the tree is just that leaf. */
  private def removeLeaf(p: Plan, alias: String): Option[Plan] = p match {
    case Lf(a) if a == alias => None
    case l: Lf               => Some(l)
    case Jn(l, r) =>
      (removeLeaf(l, alias), removeLeaf(r, alias)) match {
        case (Some(nl), Some(nr)) => Some(Jn(nl, nr))
        case (Some(nl), None)     => Some(nl)
        case (None, Some(nr))     => Some(nr)
        case (None, None)         => None
      }
  }
}
