package repro.core

import repro.SparkSpec
import repro.ldbc.{LdbcData, SnbQueries}

/** Query shapes with two merge-eligible relationship leaves between the
  * same two entity aliases: mutual `knows` edges. Both merged edges would
  * bind at the one join node that brings p1 and p2 together.
  */
object MergeShapes {
  private val o = OutCol
  private val refs = Seq(TableRef("p1", "person"), TableRef("k1", "knows"),
    TableRef("p2", "person"), TableRef("k2", "knows"))
  private val joins = Seq(JoinPred("p1", "personid", "k1", "person1id"),
    JoinPred("k1", "person2id", "p2", "personid"),
    JoinPred("p2", "personid", "k2", "person1id"),
    JoinPred("k2", "person2id", "p1", "personid"))
  private val out = Seq(o("p1", "personid"), o("p2", "personid"), o("p2", "firstname"))

  val queries: Seq[Query] = Seq(
    Query("MUTUAL-1", refs, joins, out, gfOrder = Some(Seq("p1", "k1", "p2", "k2"))),
    Query("MUTUAL-2", refs, joins, out,
      planOpt = Some(Jn(Jn(Lf("p1"), Lf("k1")), Jn(Lf("k2"), Lf("p2")))),
      gfOrder = Some(Seq("p1", "k1", "p2", "k2"))))
}

/** Join-merging preprocessing (§5.2): eligibility rules and plan surgery. */
class JoinMergeSpec extends SparkSpec {

  private lazy val cat = LdbcData.catalog(spark, 0.02)
  private lazy val sc  = LdbcData.scale(0.02)
  private def q(name: String): Query =
    SnbQueries.queries(sc).find(_.name == name).get

  test("IC1-1's knows is eligible: no filter, no projection, two predefined joins") {
    val query = q("IC1-1")
    val (joins, merged, plan) = JoinMerge.preprocess(query, query.plan, cat, enabled = true)
    assert(merged.size == 1)
    val mj = merged.head
    assert(mj.fAlias == "k" && mj.fTable == "knows")
    assert(Set(mj.a, mj.b) == Set("p1", "p2"))
    assert(joins.forall(j => !j.touches("k")))
    assert(!plan.aliases.contains("k"))
    assert(plan.aliases.toSet == Set("p1", "p2", "pl"))
  }

  test("a projected relationship table is not merged (IS3 projects k.creationdate)") {
    // IS3 projects k.creationdate — the real IS3 must NOT be merged.
    val query = q("IS3")
    assert(query.out.exists(_.alias == "k"))
    val (_, merged, _) = JoinMerge.preprocess(query, query.plan, cat, enabled = true)
    assert(merged.isEmpty)
  }

  test("a filtered relationship table is not merged (IC5-1 fp has joindate filter)") {
    val query = q("IC5-1")
    val (_, merged, _) = JoinMerge.preprocess(query, query.plan, cat, enabled = true)
    assert(merged.forall(_.fAlias != "fp"))
  }

  test("IC1-2's chained knows are not merged (knows-knows join is not predefined)") {
    val query = q("IC1-2")
    val (_, merged, _) = JoinMerge.preprocess(query, query.plan, cat, enabled = true)
    assert(merged.isEmpty)
  }

  test("IC6-2 merges both post_tag references at different plan nodes") {
    val query = q("IC6-2")
    val (_, merged, plan) = JoinMerge.preprocess(query, query.plan, cat, enabled = true)
    assert(merged.map(_.fAlias).toSet == Set("mt1", "mt2"))
    assert(!plan.aliases.contains("mt1") && !plan.aliases.contains("mt2"))
  }

  test("a merged edge whose join node already binds one leaves its relationship leaf unmerged") {
    for (query <- MergeShapes.queries) {
      val (joins, merged, plan) = JoinMerge.preprocess(query, query.plan, cat, enabled = true)
      assert(merged.map(_.fAlias) == Seq("k1"), query.name)
      assert(Set(merged.head.a, merged.head.b) == Set("p1", "p2"), query.name)
      assert(plan.aliases.toSet == Set("p1", "p2", "k2"), query.name)
      assert(joins.toSet == query.joins.filter(_.touches("k2")).toSet, query.name)
    }
  }

  test("disabled flag passes everything through unchanged") {
    val query = q("IC1-1")
    val (joins, merged, plan) = JoinMerge.preprocess(query, query.plan, cat, enabled = false)
    assert(merged.isEmpty && joins == query.joins && plan == query.plan)
  }

  test("tables without extended indices (comment) are never merged") {
    // IC12's comment c has two joins, no filter, no projection — but comment
    // has four FKs and deliberately no extended index.
    val query = q("IC12")
    val (_, merged, _) = JoinMerge.preprocess(query, query.plan, cat, enabled = true)
    assert(merged.forall(_.fAlias != "c"))
    // while knows and post_tag do merge
    assert(merged.map(_.fAlias).toSet == Set("k", "mt"))
  }
}
