package repro.core

import repro.SparkSpec
import GrainConfig._

/** The lowering (§4, §5): per ablation step, how each edge is rewritten and
  * which sideways steps and merged joins each join node gets.
  *
  * A tiny catalog: `person`; `knows` (two FKs to person, extended indices
  * both ways); `post` (creatorid → person, plain RID index); `comment`
  * (creatorid → person with one dangling FK, no RID index).
  */
class GrainPlannerSpec extends SparkSpec {

  private lazy val cat = {
    import spark.implicits._
    val c = new GrainCatalog(spark)
    c.register("person", Seq((1L, "a"), (2L, "b"), (3L, "c")).toDF("personid", "firstname"), Seq("personid"))
    c.register("knows", Seq((1L, 2L), (2L, 3L), (3L, 1L), (2L, 1L)).toDF("person1id", "person2id"),
      Seq("person1id", "person2id"))
    c.register("post", Seq((10L, 1L), (11L, 2L)).toDF("id", "creatorid"), Seq("id"))
    c.register("comment", Seq((20L, 1L), (21L, 99L)).toDF("id", "creatorid"), Seq("id"))
    Seq(PredefJoin("knows", "person1id", "person", "personid"),
      PredefJoin("knows", "person2id", "person", "personid"),
      PredefJoin("post", "creatorid", "person", "personid"),
      PredefJoin("comment", "creatorid", "person", "personid")).foreach(c.predefine)
    c.freeze()
    c.buildRidIndex("knows", "person1id", Some("person2id"))
    c.buildRidIndex("knows", "person2id", Some("person1id"))
    c.buildRidIndex("post", "creatorid")
    c
  }
  private def idx(t: String, c: String): RidIndexCsr = cat.ridIndex(t, c).get

  private val tables = Map("p" -> "person", "p1" -> "person", "p2" -> "person", "k" -> "knows",
    "po" -> "post", "c" -> "comment")
  private def query(plan: Plan, joins: JoinPred*): Query =
    Query("q", plan.aliases.map(a => TableRef(a, tables(a))), joins, Nil, planOpt = Some(plan))
  private def lower(q: Query, cfg: GrainConfig): Lowered = GrainPlanner.lower(q, q.plan, cfg, cat)

  private val Levels = Seq(Duck, RidOnly, NoJm, Full)
  private val creator = JoinPred("po", "creatorid", "p", "personid")

  /** Lower a one-join query at every step and check its single node. */
  private def oneJoin(q: Query)(keys: GrainConfig => Seq[(Key, Key)], steps: GrainConfig => Seq[SipStep]): Unit =
    for (cfg <- Levels) {
      val Seq(j) = lower(q, cfg).joins
      assert(j.kind == HashJoin, cfg)
      assert(j.keys.map(k => (k.build, k.probe)) == keys(cfg), cfg)
      assert(j.keys.forall(_.rewrite.isDefined == (cfg != Duck && keys(cfg) != keys(Duck))), cfg)
      assert(j.steps == steps(cfg), cfg)
    }

  test("FK on the build side gives Direct (SJoin) from RidOnly on") {
    oneJoin(query(Jn(Lf("po"), Lf("p")), creator))(
      cfg => Seq(if (cfg == Duck) (Key("po", "creatorid"), Key("p", "personid"))
                 else (Key("po", "rid_creatorid"), Key("p", "__rid"))),
      cfg => if (cfg == Duck) Nil else Seq(Direct(Key("po", "rid_creatorid"), "p")))
  }

  test("PK on the build side with a RID index gives MapToF (SJoinIdxR) from NoJm on") {
    oneJoin(query(Jn(Lf("p"), Lf("po")), creator))(
      cfg => Seq(if (cfg == Duck) (Key("p", "personid"), Key("po", "creatorid"))
                 else (Key("p", "__rid"), Key("po", "rid_creatorid"))),
      cfg => if (cfg.includes(NoJm)) Seq(MapToF(Key("p", "__rid"), idx("post", "creatorid"), "po")) else Nil)
  }

  test("PK on the build side without a RID index gives a RID join and no step") {
    oneJoin(query(Jn(Lf("p"), Lf("c")), JoinPred("c", "creatorid", "p", "personid")))(
      cfg => Seq(if (cfg == Duck) (Key("p", "personid"), Key("c", "creatorid"))
                 else (Key("p", "__rid"), Key("c", "rid_creatorid"))),
      _ => Nil)
  }

  test("FK-FK gives a RID join, and MapToF through the probe side's index from NoJm on") {
    val kp = JoinPred("k", "person2id", "po", "creatorid")
    oneJoin(query(Jn(Lf("k"), Lf("po")), kp))(
      cfg => Seq(if (cfg == Duck) (Key("k", "person2id"), Key("po", "creatorid"))
                 else (Key("k", "rid_person2id"), Key("po", "rid_creatorid"))),
      cfg => if (cfg.includes(NoJm)) Seq(MapToF(Key("k", "rid_person2id"), idx("post", "creatorid"), "po")) else Nil)
    oneJoin(query(Jn(Lf("po"), Lf("k")), kp))(
      cfg => Seq(if (cfg == Duck) (Key("po", "creatorid"), Key("k", "person2id"))
                 else (Key("po", "rid_creatorid"), Key("k", "rid_person2id"))),
      cfg => if (cfg.includes(NoJm)) Seq(MapToF(Key("po", "rid_creatorid"), idx("knows", "person2id"), "k")) else Nil)
  }

  test("FK-FK where an FK can dangle stays a value join with no step") {
    oneJoin(query(Jn(Lf("po"), Lf("c")), JoinPred("po", "creatorid", "c", "creatorid")))(
      _ => Seq((Key("po", "creatorid"), Key("c", "creatorid"))), _ => Nil)
  }

  test("a merged edge gives IdxMerge plus MapToOther under Full only") {
    val q = query(Jn(Jn(Lf("p1"), Lf("k")), Lf("p2")),
      JoinPred("p1", "personid", "k", "person1id"), JoinPred("k", "person2id", "p2", "personid"))
      .copy(out = Seq(OutCol("p2", "firstname")))
    val k1 = idx("knows", "person1id")
    val full = lower(q, Full)
    val Seq(m) = full.joins
    assert(m.build == ScanLeaf("p1") && m.probe == ScanLeaf("p2"))
    assert(m.kind == IdxMerge(Key("p1", "__rid"), k1, Key("p2", "__rid"), "k"))
    assert(m.keys.isEmpty)
    assert(m.steps == Seq(MapToOther(Key("p1", "__rid"), k1, "p2")))
    assert(full.mergedAway == Seq("k"))
    // Below Full the relationship is scanned: SJoinIdxR into it (NoJm), SJoin out of it.
    for (cfg <- Seq(Duck, RidOnly, NoJm)) {
      val low = lower(q, cfg)
      assert(low.mergedAway.isEmpty && low.joins.forall(_.kind == HashJoin), cfg)
      assert(low.joins.map(_.steps) == Seq(
        if (cfg == NoJm) Seq(MapToF(Key("p1", "__rid"), k1, "k")) else Nil,
        if (cfg == Duck) Nil else Seq(Direct(Key("k", "rid_person2id"), "p2"))), cfg)
    }
  }

  test("MUTUAL-1/2 merge one edge, at the one node that binds p1 and p2") {
    for (q <- MergeShapes.queries) {
      val low = lower(q, Full)
      val merges = low.joins.map(_.kind).collect { case m: IdxMerge => m }
      assert(merges.size == 1, q.name)
      assert(Set(merges.head.from.alias, merges.head.to.alias) == Set("p1", "p2"), q.name)
      assert(low.mergedAway == Seq("k1"), q.name)
      assert(low.root.aliases.toSet == Set("p1", "p2", "k2"), q.name)
      for (cfg <- Seq(Duck, RidOnly, NoJm)) assert(lower(q, cfg).mergedAway.isEmpty, s"${q.name} $cfg")
    }
  }

  test("Duck lowers to value hash joins over the raw tables with no steps") {
    for (q <- MergeShapes.queries) {
      val low = lower(q, Duck)
      assert(!low.extended)
      assert(low.joins.forall(j => j.steps.isEmpty && j.keys.forall(_.rewrite.isEmpty)))
      assert(low.joins.map(_.keys.map(k => Set(k.build, k.probe))).flatten.toSet ==
        q.joins.map(j => Set(Key(j.a, j.acol), Key(j.b, j.bcol))).toSet)
      assert(Seq(RidOnly, NoJm, Full).forall(lower(q, _).extended))
    }
  }
}
