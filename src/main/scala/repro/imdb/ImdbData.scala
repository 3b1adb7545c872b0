package repro.imdb

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SynthData
import repro.core.{GrainCatalog, PredefJoin}
import scala.collection.immutable.ListMap

/** Synthetic IMDB-lite generator for the Join Order Benchmark (substitute
  * for the 2.5M-title IMDB dump; see DESIGN.md). Entity tables (title,
  * company_name, keyword, name, …) are referenced by many-to-many
  * relationship tables (movie_companies, movie_keyword, cast_info,
  * movie_info, …) with skewed FK distributions, so JOB-style selective
  * predicates on entity tables translate into small semi-join filters over
  * large relationship scans — the regime §7.2.1 exercises.
  *
  * Notable constants live at fixed positions: frequent keywords at low ids
  * (skew makes them common in movie_keyword), rare ones at the top ids.
  */
object ImdbData {

  final case class Scale(
      nTitle: Int, nCompany: Int, nKeyword: Int, nName: Int,
      nMc: Int, nMk: Int, nMi: Int, nMiIdx: Int, nCi: Int,
      nAn: Int, nMl: Int, nCc: Int)

  def scale(s: Double): Scale = Scale(
    nTitle = math.max(200, (30000 * s).toInt),
    nCompany = math.max(50, (4000 * s).toInt),
    nKeyword = math.max(60, (6000 * s).toInt),
    nName = math.max(100, (40000 * s).toInt),
    nMc = (60000 * s).toInt max 300,
    nMk = (90000 * s).toInt max 400,
    nMi = (120000 * s).toInt max 500,
    nMiIdx = (40000 * s).toInt max 200,
    nCi = (200000 * s).toInt max 800,
    nAn = (20000 * s).toInt max 100,
    nMl = (6000 * s).toInt max 60,
    nCc = (6000 * s).toInt max 60)

  private def ids(spark: SparkSession, n: Long): DataFrame =
    spark.range(1, n + 1, 1, SynthData.Partitions).toDF("id")

  private def skewedId(n: Long, seed: Long) =
    (rand(seed) * rand(seed + 500) * n + 1).cast(LongType)

  private def uniformId(n: Long, seed: Long) =
    (rand(seed) * n + 1).cast(LongType)

  def tables(spark: SparkSession, s: Double, seed: Long = 11): ListMap[String, DataFrame] = {
    val sc = scale(s)
    import sc._

    val kindType = ids(spark, 7).select(col("id"), element_at(array(
      Seq("movie", "tv series", "tv movie", "video movie", "tv mini series",
        "video game", "episode").map(lit): _*), col("id").cast(IntegerType)).as("kind"))

    val title = ids(spark, nTitle).select(
      col("id"),
      concat(lit("Movie "), col("id").cast(StringType)).as("title"),
      (col("id") % 7 + 1).as("kind_id"),
      (lit(1950L) + (col("id") * 13) % 70).as("production_year"))

    val companyName = ids(spark, nCompany).select(
      col("id"),
      concat(lit("Company "), col("id").cast(StringType)).as("name"),
      when(col("id") % 10 < 4, "[us]").when(col("id") % 10 < 6, "[de]")
        .when(col("id") % 10 < 7, "[gb]").when(col("id") % 10 < 8, "[jp]")
        .when(col("id") % 10 < 9, "[ru]").otherwise("[pl]").as("country_code"))

    val companyType = ids(spark, 4).select(col("id"), element_at(array(
      Seq("production companies", "distributors", "special effects companies",
        "miscellaneous companies").map(lit): _*), col("id").cast(IntegerType)).as("kind"))

    val keyword = ids(spark, nKeyword).select(
      col("id"),
      when(col("id") === 1, "character-name-in-title")
        .when(col("id") === 2, "sequel")
        .when(col("id") === nKeyword - 2, "marvel-cinematic-universe")
        .when(col("id") === nKeyword - 1, "superhero")
        .when(col("id") === nKeyword, "10,000-mile-club")
        .otherwise(concat(lit("kw"), col("id").cast(StringType))).as("keyword"))

    val infoType = ids(spark, 113).select(
      col("id"),
      when(col("id") === 1, "rating").when(col("id") === 2, "votes")
        .when(col("id") === 3, "genres").when(col("id") === 4, "budget")
        .when(col("id") === 5, "top 250 rank").when(col("id") === 6, "bottom 10 rank")
        .when(col("id") === 7, "countries").when(col("id") === 8, "release dates")
        .otherwise(concat(lit("info"), col("id").cast(StringType))).as("info"))

    val genres = array(Seq("Drama", "Comedy", "Horror", "Action", "Thriller",
      "Documentary", "Sweden", "Germany", "USA", "Japan", "Romance", "Sci-Fi",
      "Denmark", "Norway", "Crime", "War", "Music", "Family", "Western",
      "Adventure").map(lit): _*)

    val roleType = ids(spark, 12).select(col("id"), element_at(array(
      Seq("actor", "actress", "producer", "writer", "cinematographer",
        "composer", "costume designer", "director", "editor", "miscellaneous crew",
        "production designer", "guest").map(lit): _*), col("id").cast(IntegerType)).as("role"))

    val name = ids(spark, nName).select(
      col("id"),
      when(col("id") === 7, "Downey Robert Jr.").otherwise(concat(
        element_at(array(('A' to 'Z').map(c => lit(c.toString)): _*),
          (col("id") % 26 + 1).cast(IntegerType)),
        lit("name "), col("id").cast(StringType))).as("name"),
      when(col("id") % 2 === 0, "m").otherwise("f").as("gender"))

    val mcNotes = array(Seq("(2006) (USA)", "(co-production)", "(presents)",
      "(as Metro-Goldwyn-Mayer Pictures)", "(uncredited)", "(TV)").map(lit): _*)
    val movieCompanies = spark.range(1, nMc + 1, 1, SynthData.Partitions).toDF("mcid").select(
      col("mcid"),
      uniformId(nTitle, seed + 1).as("movie_id"),
      skewedId(nCompany, seed + 2).as("company_id"),
      (pmod(col("mcid") * 31, lit(4)) + 1).as("company_type_id"),
      element_at(mcNotes, (pmod(col("mcid") * 17, lit(6)) + 1).cast(IntegerType)).as("note"))

    val movieKeyword = spark.range(1, nMk + 1, 1, SynthData.Partitions).toDF("mkid").select(
      col("mkid"),
      uniformId(nTitle, seed + 3).as("movie_id"),
      skewedId(nKeyword, seed + 4).as("keyword_id"))

    val movieInfo = spark.range(1, nMi + 1, 1, SynthData.Partitions).toDF("miid").select(
      col("miid"),
      uniformId(nTitle, seed + 5).as("movie_id"),
      uniformId(113, seed + 6).as("info_type_id"),
      element_at(genres, (pmod(col("miid") * 13, lit(20)) + 1).cast(IntegerType)).as("info"))

    val movieInfoIdx = spark.range(1, nMiIdx + 1, 1, SynthData.Partitions).toDF("mixid").select(
      col("mixid"),
      uniformId(nTitle, seed + 7).as("movie_id"),
      (pmod(col("mixid") * 41, lit(8)) + 1).as("info_type_id"), // rating/votes/…
      format_string("%d.%d", pmod(col("mixid") * 7, lit(10)),
        pmod(col("mixid") * 3, lit(10))).as("info"))

    val ciNotes = array(Seq("(producer)", "(voice)", "(voice: English version)",
      "(writer)", "(uncredited)", "(archive footage)", "", "", "", "").map(lit): _*)
    val castInfo = spark.range(1, nCi + 1, 1, SynthData.Partitions).toDF("ciid").select(
      col("ciid"),
      uniformId(nTitle, seed + 8).as("movie_id"),
      skewedId(nName, seed + 9).as("person_id"),
      (pmod(col("ciid") * 23, lit(12)) + 1).as("role_id"),
      element_at(ciNotes, (pmod(col("ciid") * 19, lit(10)) + 1).cast(IntegerType)).as("note"))

    val akaName = spark.range(1, nAn + 1, 1, SynthData.Partitions).toDF("anid").select(
      col("anid"),
      uniformId(nName, seed + 10).as("person_id"),
      concat(lit("aka "), col("anid").cast(StringType)).as("name"))

    val linkType = ids(spark, 18).select(col("id"), element_at(array(
      Seq("follows", "followed by", "remake of", "remade as", "references",
        "referenced in", "spoofs", "spoofed in", "features", "featured in",
        "spin off from", "spin off", "version of", "similar to", "edited into",
        "edited from", "alternate language version of", "unknown link").map(lit): _*),
      col("id").cast(IntegerType)).as("link"))

    val movieLink = spark.range(1, nMl + 1, 1, SynthData.Partitions).toDF("mlid").select(
      col("mlid"),
      uniformId(nTitle, seed + 11).as("movie_id"),
      uniformId(nTitle, seed + 12).as("linked_movie_id"),
      (pmod(col("mlid") * 29, lit(18)) + 1).as("link_type_id"))

    val compCastType = ids(spark, 4).select(col("id"), element_at(array(
      Seq("cast", "crew", "complete", "complete+verified").map(lit): _*),
      col("id").cast(IntegerType)).as("kind"))

    val completeCast = spark.range(1, nCc + 1, 1, SynthData.Partitions).toDF("ccid").select(
      col("ccid"),
      uniformId(nTitle, seed + 13).as("movie_id"),
      (pmod(col("ccid") * 7, lit(2)) + 1).as("subject_id"),   // cast / crew
      (pmod(col("ccid") * 11, lit(2)) + 3).as("status_id"))   // complete / c+v

    ListMap(
      "kind_type" -> kindType, "title" -> title, "company_name" -> companyName,
      "company_type" -> companyType, "keyword" -> keyword, "info_type" -> infoType,
      "role_type" -> roleType, "name" -> name, "movie_companies" -> movieCompanies,
      "movie_keyword" -> movieKeyword, "movie_info" -> movieInfo,
      "movie_info_idx" -> movieInfoIdx, "cast_info" -> castInfo,
      "aka_name" -> akaName, "link_type" -> linkType, "movie_link" -> movieLink,
      "comp_cast_type" -> compCastType, "complete_cast" -> completeCast)
  }

  val pks: ListMap[String, Seq[String]] = ListMap(
    "kind_type" -> Seq("id"), "title" -> Seq("id"), "company_name" -> Seq("id"),
    "company_type" -> Seq("id"), "keyword" -> Seq("id"), "info_type" -> Seq("id"),
    "role_type" -> Seq("id"), "name" -> Seq("id"), "movie_companies" -> Seq("mcid"),
    "movie_keyword" -> Seq("mkid"), "movie_info" -> Seq("miid"),
    "movie_info_idx" -> Seq("mixid"), "cast_info" -> Seq("ciid"),
    "aka_name" -> Seq("anid"), "link_type" -> Seq("id"), "movie_link" -> Seq("mlid"),
    "comp_cast_type" -> Seq("id"), "complete_cast" -> Seq("ccid"))

  val predefs: Seq[PredefJoin] = Seq(
    PredefJoin("title", "kind_id", "kind_type", "id"),
    PredefJoin("movie_companies", "movie_id", "title", "id"),
    PredefJoin("movie_companies", "company_id", "company_name", "id"),
    PredefJoin("movie_companies", "company_type_id", "company_type", "id"),
    PredefJoin("movie_keyword", "movie_id", "title", "id"),
    PredefJoin("movie_keyword", "keyword_id", "keyword", "id"),
    PredefJoin("movie_info", "movie_id", "title", "id"),
    PredefJoin("movie_info", "info_type_id", "info_type", "id"),
    PredefJoin("movie_info_idx", "movie_id", "title", "id"),
    PredefJoin("movie_info_idx", "info_type_id", "info_type", "id"),
    PredefJoin("cast_info", "movie_id", "title", "id"),
    PredefJoin("cast_info", "person_id", "name", "id"),
    PredefJoin("cast_info", "role_id", "role_type", "id"),
    PredefJoin("aka_name", "person_id", "name", "id"),
    PredefJoin("movie_link", "movie_id", "title", "id"),
    PredefJoin("movie_link", "linked_movie_id", "title", "id"),
    PredefJoin("movie_link", "link_type_id", "link_type", "id"),
    PredefJoin("complete_cast", "movie_id", "title", "id"),
    PredefJoin("complete_cast", "subject_id", "comp_cast_type", "id"),
    PredefJoin("complete_cast", "status_id", "comp_cast_type", "id"))

  /** Extended (forward+backward) index pairs for the many-to-many tables. */
  val extendedPairs: Seq[(String, String, String)] = Seq(
    ("movie_companies", "movie_id", "company_id"),
    ("movie_keyword", "movie_id", "keyword_id"),
    ("movie_info", "movie_id", "info_type_id"),
    ("movie_info_idx", "movie_id", "info_type_id"),
    ("cast_info", "movie_id", "person_id"),
    ("movie_link", "movie_id", "linked_movie_id"),
    ("complete_cast", "movie_id", "subject_id"))

  def catalog(spark: SparkSession, s: Double, seed: Long = 11): GrainCatalog =
    GrainCatalog.build(spark, tables(spark, s, seed).toSeq, pks, predefs).indexAll(extendedPairs)
}
