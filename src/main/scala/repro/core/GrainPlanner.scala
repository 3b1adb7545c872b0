package repro.core

import scala.collection.mutable

/** The paper's four ablation steps (§7.3.1, Table 10); each adds one
  * mechanism to the step before it:
  *  - `Duck`: value joins over the raw tables, full scans (vanilla DuckDB);
  *  - `RidOnly`: RID joins and SJoin sip (GRainDB-JM-RSJ);
  *  - `NoJm`: + reverse semijoins through the RID index (GRainDB-JM);
  *  - `Full`: + join merging (GRainDB).
  */
sealed abstract class GrainConfig private (private val step: Int) {
  /** This step includes everything `o` does. */
  private[core] def includes(o: GrainConfig): Boolean = step >= o.step
}
object GrainConfig {
  case object Duck extends GrainConfig(0)
  case object RidOnly extends GrainConfig(1)
  case object NoJm extends GrainConfig(2)
  case object Full extends GrainConfig(3)
}

/** A join edge replaced by the §5.2 merged join: `a` and `b` are entity
  * aliases previously connected through relationship table `fTable`.
  */
final case class MergedJoin(a: String, b: String, fAlias: String, fTable: String, aFk: String, bFk: String)

/** Column `col` of alias `alias`: a value column, `__rid` or a `rid_<fk>`.
  * Engines that name columns by alias call it `name`, as [[OutCol]] does. */
final case class Key(alias: String, col: String) { def name: String = s"${alias}_$col" }

/** One equality of a join node, build-side column first. `rewrite` is the
  * edge's predefined-join rewrite; without one the join is on values. */
final case class JoinKey(build: Key, probe: Key, rewrite: Option[Rewrites.EdgeRewrite])

/** A sideways step (§4, §5): the row mask of the build side's `from` values
  * becomes a filter on the scan of probe-side alias `target`. */
sealed trait SipStep {
  def from: Key
  def target: String

  /** The mask over the target's `targetRows` rows, where `fromMask(n)` is
    * the row mask of `from`'s values over `n` rows. */
  def mask(fromMask: Int => RowMask, targetRows: Int): RowMask = this match {
    case _: Direct             => fromMask(targetRows)
    case MapToF(_, idx, _)     => idx.mapToF(fromMask(idx.nKeys), targetRows)
    case MapToOther(_, idx, _) => idx.mapToOther(fromMask(idx.nKeys), targetRows)
  }
}
/** SJoin (§4): F builds; its materialized RIDs are rows of the PK scan. */
final case class Direct(from: Key, target: String) extends SipStep
/** SJoinIdxR (§5.1): the build side's P RIDs mapped to F RIDs through the
  * RID index of the probe relationship (FK-PK with P building, or FK-FK). */
final case class MapToF(from: Key, index: RidIndexCsr, target: String) extends SipStep
/** The merged join's semijoin (§5.2): P1 RIDs mapped to P2 RIDs through
  * the extended index. */
final case class MapToOther(from: Key, index: RidIndexCsr, target: String) extends SipStep

sealed trait JoinKind
case object HashJoin extends JoinKind
case object CrossJoin extends JoinKind
/** SJoinIdxM (§5.2): (`from`, `to`) RID pairs come straight from the
  * extended `index`; relationship `fAlias` is never scanned. The node's
  * keys are residual conditions on the pairs. */
final case class IdxMerge(from: Key, index: RidIndexCsr, to: Key, fAlias: String) extends JoinKind

/** The physical plan both executors interpret. The build side runs first;
  * its `steps` filter probe-side scans before the probe side runs. */
sealed trait PhysPlan { def aliases: Seq[String] }
final case class ScanLeaf(alias: String) extends PhysPlan { def aliases: Seq[String] = Seq(alias) }
final case class JoinNode(build: PhysPlan, probe: PhysPlan, kind: JoinKind, keys: Seq[JoinKey],
                          steps: Seq[SipStep]) extends PhysPlan {
  def aliases: Seq[String] = build.aliases ++ probe.aliases
}

/** A lowered query. `extended`: scans read the RID-extended tables
  * (GRainDB) rather than the raw ones (DuckDB). */
final class Lowered(val root: PhysPlan, val extended: Boolean) {
  /** Every join node, children before parents. */
  def joins: Seq[JoinNode] = {
    def walk(p: PhysPlan): Seq[JoinNode] = p match {
      case _: ScanLeaf => Nil
      case j: JoinNode => walk(j.build) ++ walk(j.probe) :+ j
    }
    walk(root)
  }
  /** Relationship aliases that join merging removed from the plan. */
  def mergedAway: Seq[String] = joins.collect { case JoinNode(_, _, m: IdxMerge, _, _) => m.fAlias }
}

/** Lowers a query and its pinned plan to the [[PhysPlan]] both executors
  * run: the one place that decides, per [[GrainConfig]] step, how each
  * edge is rewritten and which sideways steps and merged joins fire.
  */
object GrainPlanner {
  def lower(q: Query, plan: Plan, cfg: GrainConfig, cat: GrainCatalog): Lowered = {
    import GrainConfig._
    val (joins, merged, p) = JoinMerge.preprocess(q, plan, cat, enabled = cfg.includes(Full))

    def extendedIndex(mj: MergedJoin, fk: String): RidIndexCsr =
      cat.ridIndex(mj.fTable, fk).filter(_.extended)
        .getOrElse(sys.error(s"join merge needs extended index on ${mj.fTable}.$fk"))

    def key(j: JoinPred, lSet: Set[String]): JoinKey = {
      val rw = if (cfg.includes(RidOnly)) Rewrites.resolve(cat, q, j) else None
      val (a, b) = rw match {
        case Some(Rewrites.FkPk(fkAlias, ridCol, pkAlias, _)) => (Key(fkAlias, ridCol), Key(pkAlias, "__rid"))
        case Some(f: Rewrites.FkFk) => (Key(f.aAlias, f.aRidCol), Key(f.bAlias, f.bRidCol))
        case None                   => (Key(j.a, j.acol), Key(j.b, j.bcol))
      }
      if (lSet(a.alias)) JoinKey(a, b, rw) else JoinKey(b, a, rw)
    }

    // SJoin when F builds; SJoinIdxR through the probe side's RID index
    // when P builds (FK-PK) or for FK-FK, if that index exists.
    def step(k: JoinKey): Option[SipStep] = k.rewrite match {
      case Some(Rewrites.FkPk(fkAlias, _, _, _)) if k.build.alias == fkAlias =>
        Some(Direct(k.build, k.probe.alias))
      case Some(Rewrites.FkPk(fkAlias, _, _, fkCol)) if cfg.includes(NoJm) =>
        cat.ridIndex(q.ref(fkAlias).table, fkCol).map(MapToF(k.build, _, k.probe.alias))
      case Some(f: Rewrites.FkFk) if cfg.includes(NoJm) =>
        val probeFk = if (k.probe.alias == f.aAlias) f.aFkCol else f.bFkCol
        cat.ridIndex(q.ref(k.probe.alias).table, probeFk).map(MapToF(k.build, _, k.probe.alias))
      case _ => None
    }

    def lowerPlan(p: Plan): PhysPlan = p match {
      case Lf(a) => ScanLeaf(a)
      case Jn(l, r) =>
        val lSet = l.aliases.toSet
        val rSet = r.aliases.toSet
        def connects(a: String, b: String) = (lSet(a) && rSet(b)) || (lSet(b) && rSet(a))
        val keys = joins.filter(j => connects(j.a, j.b)).map(key(_, lSet))
        // JoinMerge binds at most one merged edge per join node.
        val merge = merged.find(mj => connects(mj.a, mj.b)).map { mj =>
          val (a, b, aFk) = if (lSet(mj.a)) (mj.a, mj.b, mj.aFk) else (mj.b, mj.a, mj.bFk)
          IdxMerge(Key(a, "__rid"), extendedIndex(mj, aFk), Key(b, "__rid"), mj.fAlias)
        }
        val kind = merge.getOrElse(if (keys.isEmpty) CrossJoin else HashJoin)
        val steps = keys.flatMap(step) ++ merge.map(m => MapToOther(m.from, m.index, m.to.alias))
        JoinNode(lowerPlan(l), lowerPlan(r), kind, keys, steps)
    }
    new Lowered(lowerPlan(p), extended = cfg.includes(RidOnly))
  }
}

/** Join-merging preprocessing (§5.2), run by [[GrainPlanner.lower]]: drop
  * relationship leaves that only facilitate a P1–F–P2 join, replacing their
  * two edges by a [[MergedJoin]]. Requires extended RID indices in both
  * directions (forward/backward adjacency, §5.2) so the merge works
  * regardless of which entity ends up on the build side.
  *
  * A merged edge binds at the join node that first brings P1 and P2
  * together, and a node joins through at most one merged edge. So a leaf
  * whose merged edge would bind at a node that already binds another stays
  * in the plan as an ordinary relationship scan.
  */
object JoinMerge {
  def preprocess(q: Query, plan: Plan, cat: GrainCatalog, enabled: Boolean)
      : (Seq[JoinPred], Seq[MergedJoin], Plan) = {
    if (!enabled) return (q.joins, Seq.empty, plan)
    var joins = q.joins
    var merged = List.empty[MergedJoin]
    var p = plan
    val boundNodes = mutable.Set[Set[String]]()

    q.refs.foreach { r =>
      val touching = joins.filter(_.touches(r.alias))
      val eligible =
        q.readCols(r.alias).isEmpty && touching.size == 2 && {
          touching.forall { j =>
            val (oAlias, oCol) = j.other(r.alias)
            cat.findPredef(r.table, j.colOf(r.alias), q.ref(oAlias).table, oCol).isDefined
          }
        } && {
          touching.forall(j =>
            cat.ridIndex(r.table, j.colOf(r.alias)).exists(_.extended))
        } && p.aliases.contains(r.alias)
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
    case Jn(l, _) if l.aliases.contains(a) && l.aliases.contains(b) => bindingNode(l, a, b)
    case Jn(_, r) if r.aliases.contains(a) && r.aliases.contains(b) => bindingNode(r, a, b)
    case _                                                          => p.aliases.toSet
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
