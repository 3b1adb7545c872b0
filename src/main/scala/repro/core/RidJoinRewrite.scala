package repro.core

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeReference, EqualTo, Expression}
import org.apache.spark.sql.catalyst.optimizer.ConvertToLocalRelation
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Join, LeafNode, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.internal.SQLConf

/** The Case-2 rewrite of §4 as a genuine Catalyst optimizer rule.
  *
  * For an inner equality join whose condition contains `F.fk = P.pk` for a
  * predefined join, rewrite the conjunct to `F.rid_fk = P.__rid`: a
  * single-column dense-integer equality, which is what makes RID hash joins
  * cheaper than value joins on wide / non-integer keys. Runtime sideways
  * information passing is layered on top by [[SparkExec]]; this rule is the
  * purely-logical part that can be injected via
  * `spark.experimental.extraOptimizations`.
  *
  * Because it runs after column pruning, the RID columns the rewrite needs
  * may have been projected away; the rule re-threads them through the
  * intermediate `Project`s (they always exist on the leaf relations, which
  * carry the full extended-table schema).
  */
final class RidJoinRewrite(catalog: GrainCatalog) extends Rule[LogicalPlan] {

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case j @ Join(_, _, Inner, Some(cond), _) =>
      rewriteJoin(j, cond)
  }

  private def rewriteJoin(j: Join, cond: Expression): Join = {
    val conjuncts = splitConjuncts(cond)
    var left  = j.left
    var right = j.right
    val newConjuncts = conjuncts.map {
      case eq @ EqualTo(a: AttributeReference, b: AttributeReference) =>
        matchPredef(left, right, a, b) match {
          case Some((fkAttr, pkAttr, pj)) =>
            val fkOnLeft = sideOf(left, fkAttr).isDefined
            val (fkSide, pkSide) = if (fkOnLeft) (left, right) else (right, left)
            val rewritten = for {
              fkLeaf  <- leafOf(fkSide, fkAttr)
              pkLeaf  <- leafOf(pkSide, pkAttr)
              ridAttr <- fkLeaf.output.find(_.name == pj.ridCol)
              pRid    <- pkLeaf.output.find(_.name == "__rid")
            } yield {
              val newFkSide = thread(fkSide, ridAttr)
              val newPkSide = thread(pkSide, pRid)
              if (fkOnLeft) { left = newFkSide; right = newPkSide }
              else          { left = newPkSide; right = newFkSide }
              EqualTo(ridAttr, pRid)
            }
            rewritten.getOrElse(eq)
          case None => eq
        }
      case other => other
    }
    j.copy(left = left, right = right, condition = Some(newConjuncts.reduce(org.apache.spark.sql.catalyst.expressions.And)))
  }

  private def splitConjuncts(e: Expression): Seq[Expression] = e match {
    case org.apache.spark.sql.catalyst.expressions.And(l, r) =>
      splitConjuncts(l) ++ splitConjuncts(r)
    case other => Seq(other)
  }

  /** Find a predefined join matching the attribute pair by (fk, pk) column
    * names, verified against the leaf relations' schemas (the extended
    * tables are the only relations carrying `rid_*` / `__rid` columns).
    */
  private def matchPredef(
      left: LogicalPlan, right: LogicalPlan,
      a: AttributeReference, b: AttributeReference,
  ): Option[(Attribute, Attribute, PredefJoin)] = {
    catalog.predefined.iterator.flatMap { pj =>
      val cand: Seq[(AttributeReference, AttributeReference)] =
        if (a.name == pj.fkCol && b.name == pj.pkCol) Seq((a, b))
        else if (b.name == pj.fkCol && a.name == pj.pkCol) Seq((b, a))
        else Seq.empty
      cand.flatMap { case (fkAttr, pkAttr) =>
        val fkSide = sideOf(left, fkAttr).orElse(sideOf(right, fkAttr))
        val pkSide = sideOf(left, pkAttr).orElse(sideOf(right, pkAttr))
        for {
          fs <- fkSide
          ps <- pkSide
          fLeaf <- leafOf(fs, fkAttr) if fLeaf.output.exists(_.name == pj.ridCol)
          pLeaf <- leafOf(ps, pkAttr) if pLeaf.output.exists(_.name == "__rid") &&
            pLeaf.output.exists(_.name == pj.pkCol)
        } yield (fkAttr: Attribute, pkAttr: Attribute, pj)
      }
    }.nextOption()
  }

  private def sideOf(side: LogicalPlan, attr: Attribute): Option[LogicalPlan] =
    if (side.outputSet.exists(_.exprId == attr.exprId)) Some(side) else None

  /** The leaf relation whose output carries `attr` (by exprId). */
  private def leafOf(plan: LogicalPlan, attr: Attribute): Option[LeafNode] =
    plan.collectFirst {
      case l: LeafNode if l.output.exists(_.exprId == attr.exprId) => l
    }

  /** Re-add `attr` through every pruning Project between its leaf and the
    * top of `plan` (bottom-up, so the addition propagates).
    */
  private def thread(plan: LogicalPlan, attr: Attribute): LogicalPlan =
    plan.transformUp {
      case p @ Project(list, child)
          if child.outputSet.exists(_.exprId == attr.exprId) &&
            !list.exists(_.toAttribute.exprId == attr.exprId) =>
        Project(list :+ attr, child)
    }
}

object RidJoinRewrite {
  /** Install into the session's experimental optimizations (idempotent).
    * The extended tables are local relations ([[GrainCatalog.freeze]]), and
    * `ConvertToLocalRelation` would fold the pruning `Project`s above them
    * into new local relations without the RID columns, so it is excluded
    * while the rule is installed.
    */
  def install(spark: SparkSession, catalog: GrainCatalog): RidJoinRewrite = {
    val rule = new RidJoinRewrite(catalog)
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations.filterNot(_.isInstanceOf[RidJoinRewrite]) :+ rule
    excludeFolding(spark, on = true)
    rule
  }

  def uninstall(spark: SparkSession): Unit = {
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations.filterNot(_.isInstanceOf[RidJoinRewrite])
    excludeFolding(spark, on = false)
  }

  private def excludeFolding(spark: SparkSession, on: Boolean): Unit = {
    val key = SQLConf.OPTIMIZER_EXCLUDED_RULES.key
    val rules = spark.conf.getOption(key).toSeq.flatMap(_.split(",")).map(_.trim)
      .filter(r => r.nonEmpty && r != ConvertToLocalRelation.ruleName)
    val next = if (on) rules :+ ConvertToLocalRelation.ruleName else rules
    if (next.isEmpty) spark.conf.unset(key) else spark.conf.set(key, next.mkString(","))
  }
}
