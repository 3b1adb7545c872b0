package repro.ldbc

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SynthData
import repro.core.{GrainCatalog, PredefJoin}
import scala.collection.immutable.ListMap

/** Synthetic LDBC SNB-lite generator (substitute for SNB SF10/30, see
  * DESIGN.md). 13 tables with the same FK structure as the SNB-M SQL of the
  * paper's Appendix A. Deterministic in (scale, seed). Dates are epoch
  * seconds in [DateLo, DateHi]; all ids are dense 1..N longs; relationship
  * endpoints are mildly skewed (rand², a zipf-ish degree distribution).
  */
object LdbcData {
  val DateLo = 1300000000L
  val DateHi = 1360000000L

  /** Parameter used where the paper filters `person.id = 933`. */
  val ParamPersonId = 42L

  final case class Scale(
      nPerson: Int, nPlace: Int, nTag: Int, nTagClass: Int, nOrg: Int,
      nForum: Int, nKnows: Int, nPost: Int, nComment: Int,
      nForumPerson: Int, nPostTag: Int, nLikes: Int, nPersonCompany: Int)

  def scale(s: Double): Scale = {
    val p = math.max(60, (2000 * s).toInt)
    Scale(
      nPerson = p, nPlace = 60, nTag = 120, nTagClass = 12, nOrg = 100,
      nForum = math.max(20, p / 2),
      nKnows = p * 20, nPost = p * 10, nComment = p * 30,
      nForumPerson = p * 5, nPostTag = p * 20, nLikes = p * 30,
      nPersonCompany = (p * 1.2).toInt)
  }

  private def ids(spark: SparkSession, n: Long, name: String): DataFrame =
    spark.range(1, n + 1, 1, SynthData.Partitions).toDF(name)

  private def dateCol(seed: Long) =
    (rand(seed) * (DateHi - DateLo)).cast(LongType) + DateLo

  /** rand² skew: low ids get quadratically more references. */
  private def skewedId(n: Long, seed: Long) =
    (rand(seed) * rand(seed + 1000) * n + 1).cast(LongType)

  private def uniformId(n: Long, seed: Long) =
    (rand(seed) * n + 1).cast(LongType)

  def tables(spark: SparkSession, s: Double, seed: Long = 7): ListMap[String, DataFrame] = {
    val sc = scale(s)
    import sc._

    val firstNames = array((Seq("Rahul", "Jan", "Wei", "Otto", "Bryn", "Io",
      "Ada", "Max", "Mahinda", "Karim", "Carmen", "Zhang", "Ana", "Jose",
      "Lee", "Kim", "Ola", "Mia", "Sam", "Uma") ++ (1 to 30).map("Name" + _)).map(lit): _*)

    val person = ids(spark, nPerson, "id").select(
      col("id"),
      col("id").as("personid"),
      element_at(firstNames, (col("id") % 50 + 1).cast(IntegerType)).as("firstname"),
      concat(lit("Last"), (col("id") % 97).cast(StringType)).as("lastname"),
      element_at(array(lit("male"), lit("female")), (col("id") % 2 + 1).cast(IntegerType)).as("gender"),
      (lit(100000000L) + (col("id") * 37) % 900000000L).as("birthday"),
      dateCol(seed + 1).as("creationdate"),
      concat(lit("10.0."), (col("id") % 256).cast(StringType)).as("locationip"),
      element_at(array(lit("Chrome"), lit("Firefox"), lit("Safari")),
        (col("id") % 3 + 1).cast(IntegerType)).as("browserused"),
      uniformId(nPlace, seed + 2).as("placeid"))

    val place = ids(spark, nPlace, "placeid").select(
      col("placeid"),
      when(col("placeid") === 1, "India")
        .when(col("placeid") === 2, "China")
        .otherwise(concat(lit("Place"), col("placeid").cast(StringType))).as("name"))

    val knows = spark.range(1, nKnows + 1, 1, SynthData.Partitions).toDF("kid").select(
      col("kid"),
      uniformId(nPerson, seed + 3).as("person1id"),
      skewedId(nPerson, seed + 4).as("person2id"),
      dateCol(seed + 5).as("creationdate"))

    val forum = ids(spark, nForum, "forumid").select(
      col("forumid"),
      concat(lit("Forum"), col("forumid").cast(StringType)).as("title"),
      uniformId(nPerson, seed + 6).as("moderatorid"))

    val post = ids(spark, nPost, "id").select(
      col("id"),
      skewedId(nPerson, seed + 7).as("creatorid"),
      dateCol(seed + 8).as("creationdate"),
      uniformId(nForum, seed + 9).as("forumid"),
      concat(lit("post-content-"), col("id").cast(StringType)).as("content"))

    val comment = ids(spark, nComment, "id").select(
      col("id"),
      skewedId(nPerson, seed + 10).as("creatorid"),
      dateCol(seed + 11).as("creationdate"),
      uniformId(nPlace, seed + 12).as("locationid"),
      // ~60% reply to a post, rest dangle (0 matches nothing, like NULL)
      when(rand(seed + 13) < 0.6, uniformId(nPost, seed + 14)).otherwise(0L).as("replyof_post"),
      when(rand(seed + 15) < 0.3, uniformId(nComment, seed + 16)).otherwise(0L).as("replyof_comment"),
      concat(lit("comment-content-"), col("id").cast(StringType)).as("content"))

    val forumPerson = spark.range(1, nForumPerson + 1, 1, SynthData.Partitions).toDF("fpid").select(
      col("fpid"),
      uniformId(nForum, seed + 17).as("forumid"),
      uniformId(nPerson, seed + 18).as("personid"),
      dateCol(seed + 19).as("joindate"))

    val tag = ids(spark, nTag, "tagid").select(
      col("tagid"),
      when(col("tagid") === 1, "Rumi")
        .otherwise(concat(lit("Tag"), col("tagid").cast(StringType))).as("t_name"),
      uniformId(nTagClass, seed + 20).as("tagclassid"))

    val tagclass = ids(spark, nTagClass, "tagclassid").select(
      col("tagclassid"),
      when(col("tagclassid") === 1, "Person")
        .otherwise(concat(lit("Class"), col("tagclassid").cast(StringType))).as("tc_name"),
      (col("tagclassid") % lit(nTagClass.toLong) + 1).as("subclassoftagclassid"))

    val postTag = spark.range(1, nPostTag + 1, 1, SynthData.Partitions).toDF("ptid").select(
      col("ptid"),
      uniformId(nPost, seed + 21).as("messageid"),
      skewedId(nTag, seed + 22).as("tagid"))

    val likesComment = spark.range(1, nLikes + 1, 1, SynthData.Partitions).toDF("lid").select(
      col("lid"),
      uniformId(nPerson, seed + 23).as("personid"),
      skewedId(nComment, seed + 24).as("messageid"),
      dateCol(seed + 25).as("creationdate"))

    val organisation = ids(spark, nOrg, "organisationid").select(
      col("organisationid"),
      concat(lit("Org"), col("organisationid").cast(StringType)).as("name"),
      uniformId(nPlace, seed + 26).as("placeid"))

    val personCompany = spark.range(1, nPersonCompany + 1, 1, SynthData.Partitions).toDF("pcid").select(
      col("pcid"),
      uniformId(nPerson, seed + 27).as("personid"),
      uniformId(nOrg, seed + 28).as("organisationid"),
      (rand(seed + 29) * 32 + 1990).cast(LongType).as("workfrom"))

    ListMap(
      "person" -> person, "place" -> place, "knows" -> knows, "forum" -> forum,
      "post" -> post, "comment" -> comment, "forum_person" -> forumPerson,
      "tag" -> tag, "tagclass" -> tagclass, "post_tag" -> postTag,
      "likes_comment" -> likesComment, "organisation" -> organisation,
      "person_company" -> personCompany)
  }

  /** Primary-key (RID-order) columns per table. */
  val pks: ListMap[String, Seq[String]] = ListMap(
    "person" -> Seq("id"), "place" -> Seq("placeid"), "knows" -> Seq("kid"),
    "forum" -> Seq("forumid"), "post" -> Seq("id"), "comment" -> Seq("id"),
    "forum_person" -> Seq("fpid"), "tag" -> Seq("tagid"),
    "tagclass" -> Seq("tagclassid"), "post_tag" -> Seq("ptid"),
    "likes_comment" -> Seq("lid"), "organisation" -> Seq("organisationid"),
    "person_company" -> Seq("pcid"))

  /** All predefined FK→PK joins (every one-to-many PK-FK relationship). */
  val predefs: Seq[PredefJoin] = Seq(
    PredefJoin("person", "placeid", "place", "placeid"),
    PredefJoin("knows", "person1id", "person", "personid"),
    PredefJoin("knows", "person2id", "person", "personid"),
    PredefJoin("forum", "moderatorid", "person", "personid"),
    PredefJoin("post", "creatorid", "person", "personid"),
    PredefJoin("post", "forumid", "forum", "forumid"),
    PredefJoin("comment", "creatorid", "person", "personid"),
    PredefJoin("comment", "locationid", "place", "placeid"),
    PredefJoin("comment", "replyof_post", "post", "id"),
    PredefJoin("comment", "replyof_comment", "comment", "id"),
    PredefJoin("forum_person", "forumid", "forum", "forumid"),
    PredefJoin("forum_person", "personid", "person", "personid"),
    PredefJoin("post_tag", "messageid", "post", "id"),
    PredefJoin("post_tag", "tagid", "tag", "tagid"),
    PredefJoin("tag", "tagclassid", "tagclass", "tagclassid"),
    PredefJoin("tagclass", "subclassoftagclassid", "tagclass", "tagclassid"),
    PredefJoin("organisation", "placeid", "place", "placeid"),
    PredefJoin("likes_comment", "personid", "person", "personid"),
    PredefJoin("likes_comment", "messageid", "comment", "id"),
    PredefJoin("person_company", "personid", "person", "personid"),
    PredefJoin("person_company", "organisationid", "organisation", "organisationid"))

  /** Relationship tables get forward+backward *extended* indices (§5.2);
    * every other predefined join gets a plain RID index (reverse semijoins).
    */
  val extendedPairs: Seq[(String, String, String)] = Seq(
    ("knows", "person1id", "person2id"),
    ("forum_person", "forumid", "personid"),
    ("post_tag", "messageid", "tagid"),
    ("likes_comment", "personid", "messageid"),
    ("person_company", "personid", "organisationid"))

  /** Full GRainDB catalog: registered, predefined, frozen, indexed. */
  def catalog(spark: SparkSession, s: Double, seed: Long = 7): GrainCatalog =
    GrainCatalog.build(spark, tables(spark, s, seed).toSeq, pks, predefs, extendedPairs)
}
