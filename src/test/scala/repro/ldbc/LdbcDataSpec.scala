package repro.ldbc

import org.apache.spark.sql.functions._
import repro.{Inspect, SparkSpec}

/** SNB-lite generator: FK integrity, determinism, parameter validity. */
class LdbcDataSpec extends SparkSpec {
  private val Sf = 0.02
  private lazy val ts = LdbcData.tables(spark, Sf)
  private lazy val sc = LdbcData.scale(Sf)

  test("table sizes match the scale") {
    assert(ts("person").count() == sc.nPerson)
    assert(ts("knows").count() == sc.nKnows)
    assert(ts("comment").count() == sc.nComment)
    assert(ts("post").count() == sc.nPost)
  }

  test("knows endpoints are valid person ids") {
    val bad = ts("knows").join(ts("person").select(col("id").as("pid")),
      col("person1id") === col("pid"), "left_anti").count()
    assert(bad == 0)
    val bad2 = ts("knows").join(ts("person").select(col("id").as("pid")),
      col("person2id") === col("pid"), "left_anti").count()
    assert(bad2 == 0)
  }

  test("comment FKs are valid (0 = dangling allowed for replyof_*)") {
    val nPost = sc.nPost
    val bad = ts("comment").filter(col("replyof_post") =!= 0 &&
      (col("replyof_post") < 1 || col("replyof_post") > nPost)).count()
    assert(bad == 0)
    val badCreator = ts("comment").join(ts("person").select(col("id").as("pid")),
      col("creatorid") === col("pid"), "left_anti").count()
    assert(badCreator == 0)
  }

  test("parameter person id exists") {
    assert(ts("person").filter(col("id") === LdbcData.ParamPersonId).count() == 1)
  }

  test("special place/tag/tagclass names are present") {
    assert(ts("place").filter(col("name") === "India").count() == 1)
    assert(ts("place").filter(col("name") === "China").count() == 1)
    assert(ts("tag").filter(col("t_name") === "Rumi").count() == 1)
    assert(ts("tagclass").filter(col("tc_name") === "Person").count() == 1)
    assert(ts("person").filter(col("firstname") === "Rahul").count() > 0)
  }

  test("generation is deterministic in (scale, seed)") {
    val a = LdbcData.tables(spark, Sf)("knows").collect().map(_.toSeq).toSeq
    val b = LdbcData.tables(spark, Sf)("knows").collect().map(_.toSeq).toSeq
    assert(a == b)
  }

  test("creation dates cover [DateLo, DateHi)") {
    val mm = ts("knows").agg(min("creationdate"), max("creationdate")).head
    assert(mm.getLong(0) >= LdbcData.DateLo && mm.getLong(1) < LdbcData.DateHi)
  }

  test("catalog builds RID indices for all predefined joins") {
    val cat = LdbcData.catalog(spark, Sf)
    assert(cat.ridIndices.size == LdbcData.predefs.size)
    // knows has extended indices in both directions
    assert(cat.ridIndex("knows", "person1id").exists(_.extended))
    assert(cat.ridIndex("knows", "person2id").exists(_.extended))
    // comment indices are plain (4 FKs, no unambiguous pairing)
    assert(cat.ridIndex("comment", "creatorid").exists(!_.extended))
  }

  test("RID index degree sums equal the relationship cardinality") {
    val cat = LdbcData.catalog(spark, Sf)
    val idx = cat.ridIndex("knows", "person1id").get
    assert(idx.nEntries == sc.nKnows)
    assert((0 until idx.nKeys).map(Inspect.degree(idx, _)).sum == sc.nKnows)
  }
}
