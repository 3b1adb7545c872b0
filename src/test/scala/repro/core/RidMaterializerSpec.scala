package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.{Inspect, SparkSpec}

/** The Spark formulation of RID materialization that [[GrainCatalog]]
  * replaced, kept as the reference of the differential test: `__rid` by a
  * `row_number` window over the primary key, `rid_<fk>` by a left join.
  */
object SparkRidReference {
  def withRid(df: DataFrame, orderCols: Seq[String]): DataFrame = {
    val w = Window.orderBy(orderCols.map(col): _*)
    df.withColumn("__rid", row_number().over(w).cast("long") - 1)
  }

  def materialize(f: DataFrame, fkCol: String, p: DataFrame, pkCol: String): DataFrame = {
    val ridCol = s"rid_$fkCol"
    val lookup = p.select(col(pkCol).as("__pk_tmp"), col("__rid").as(ridCol))
    f.join(lookup, col(fkCol) === col("__pk_tmp"), "left")
      .drop("__pk_tmp")
      .withColumn(ridCol, coalesce(col(ridCol), lit(-1L)))
  }
}

/** RID materialization (§3): dense `__rid` assignment and `rid_<fk>`. */
class RidMaterializerSpec extends SparkSpec {
  import spark.implicits._

  /** A frozen catalog over `tables` (name, frame, PK) and `predefs`. */
  private def frozen(tables: Seq[(String, DataFrame, Seq[String])], predefs: PredefJoin*): GrainCatalog = {
    val cat = new GrainCatalog(spark)
    tables.foreach { case (n, df, pk) => cat.register(n, df, pk) }
    predefs.foreach(cat.predefine)
    cat.freeze()
    cat
  }

  test("freeze assigns dense __rid 0..n-1 in pk order") {
    val df = Seq(30L, 10L, 20L).toDF("id")
    val rid = frozen(Seq(("t", df, Seq("id")))).ext("t").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toMap
    assert(rid == Map(10L -> 0L, 20L -> 1L, 30L -> 2L))
  }

  test("freeze points each F row at the matching P RID") {
    val p = Seq(101L, 202L, 303L, 404L).toDF("id")
    val f = Seq((101L, 2021L), (303L, 2019L), (101L, 2021L)).toDF("fk", "year")
    val ext = frozen(Seq(("p", p, Seq("id")), ("f", f, Seq("fk", "year"))),
      PredefJoin("f", "fk", "p", "id")).ext("f")
    assert(ext.columns.contains("rid_fk"))
    val rows = ext.select("fk", "rid_fk").collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(rows.toSet == Set((101L, 0L), (303L, 2L)))
    assert(rows.count(_._1 == 101L) == 2) // multiplicity preserved
  }

  test("dangling FKs materialize as -1 (match nothing, like the value join)") {
    val p = Seq(1L).toDF("id")
    val f = Seq(1L, 999L).toDF("fk")
    val cat = frozen(Seq(("p", p, Seq("id")), ("f", f, Seq("fk"))), PredefJoin("f", "fk", "p", "id"))
    val byFk = cat.ext("f").select("fk", "rid_fk").collect().map(r => (r.getLong(0), r.getLong(1))).toMap
    assert(byFk(1L) == 0L && byFk(999L) == -1L)
    assert(cat.danglingCounts(("f", "fk")) == 1L && !cat.danglingFree("f", "fk"))
  }

  test("catalog running example: Follows' extended table matches Table 2") {
    val cat = new GrainCatalog(spark)
    cat.register("person", Seq((101L, "Mahinda"), (202L, "Karim"), (303L, "Carmen"),
      (404L, "Zhang")).toDF("id", "name"), Seq("id"))
    cat.register("follows", Seq((1L, 101L, 202L, 2021L), (2L, 303L, 404L, 2019L),
      (3L, 101L, 303L, 2021L), (4L, 202L, 303L, 2020L), (5L, 101L, 404L, 2021L))
      .toDF("fid", "id1", "id2", "year"), Seq("fid"))
    cat.predefine(PredefJoin("follows", "id1", "person", "id"))
    cat.predefine(PredefJoin("follows", "id2", "person", "id"))
    cat.freeze()
    val ext = cat.ext("follows").orderBy("__rid")
      .select("id1", "rid_id1", "id2", "rid_id2").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3))).toSeq
    // Table 2(b): R1 = [0,2,0,1,0], R2 = [1,3,2,2,3]
    assert(ext == Seq((101L, 0L, 202L, 1L), (303L, 2L, 404L, 3L),
      (101L, 0L, 303L, 2L), (202L, 1L, 303L, 2L), (101L, 0L, 404L, 3L)))

    // and the RID index over it matches Fig. 2, with ascending F-RID lists
    val idx = cat.buildRidIndex("follows", "id1", extendedWith = Some("id2"))
    assert(Inspect.neighbors(idx, 0).toSeq == Seq(0, 2, 4))
    assert(Inspect.neighbors(idx, 1).toSeq == Seq(3))
    assert(Inspect.neighbors(idx, 2).toSeq == Seq(1))
    assert(Inspect.neighbors(idx, 3).isEmpty)
    assert(idx.extended)
  }

  test("extended tables keep the raw columns and types, then __rid and rid_* as non-null longs") {
    val p = Seq((1, java.sql.Date.valueOf("2020-01-02"), BigDecimal("1.50"))).toDF("id", "d", "m")
    val f = Seq((7L, Some(1)), (8L, None)).toDF("fid", "pid")
    val cat = frozen(Seq(("p", p, Seq("id")), ("f", f, Seq("fid"))), PredefJoin("f", "pid", "p", "id"))
    assert(cat.ext("p").schema.fields.take(3).toSeq == p.schema.fields.toSeq)
    assert(cat.ext("p").columns.toSeq == Seq("id", "d", "m", "__rid"))
    assert(cat.ext("f").columns.toSeq == Seq("fid", "pid", "__rid", "rid_pid"))
    assert(cat.ext("f").schema.fields.drop(2).forall(s => s.dataType.typeName == "long" && !s.nullable))
    assert(cat.ext("p").collect().head.toSeq ==
      Seq(1, java.sql.Date.valueOf("2020-01-02"), new java.math.BigDecimal("1.500000000000000000"), 0L))
    assert(cat.ext("f").select("rid_pid").collect().map(_.getLong(0)).toSeq == Seq(0L, -1L)) // NULL FK: -1
    assert(cat.rows("f") == 2L)
  }

  test("freeze fails loudly on a non-unique P-side key, naming the table and column") {
    val p = Seq((1L, 5L), (2L, 5L)).toDF("id", "code")
    val f = Seq(5L).toDF("fk")
    val e = intercept[IllegalArgumentException](
      frozen(Seq(("p", p, Seq("id")), ("f", f, Seq("fk"))), PredefJoin("f", "fk", "p", "code")))
    assert(e.getMessage.contains("p.code") && e.getMessage.contains("not unique"), e.getMessage)
  }

  test("catalog pk() exposes single-column primary keys only") {
    val cat = new GrainCatalog(spark)
    cat.register("a", Seq(1L).toDF("x"), Seq("x"))
    cat.register("b", Seq((1L, 2L)).toDF("x", "y"), Seq("x", "y"))
    assert(cat.pk("a").contains("x"))
    assert(cat.pk("b").isEmpty)
  }

  test("findPredef matches exact (table, col) pairs only") {
    val cat = new GrainCatalog(spark)
    cat.register("p", Seq(1L).toDF("id"), Seq("id"))
    cat.register("f", Seq((1L, 1L)).toDF("fid", "fk"), Seq("fid"))
    cat.predefine(PredefJoin("f", "fk", "p", "id"))
    assert(cat.findPredef("f", "fk", "p", "id").isDefined)
    assert(cat.findPredef("p", "id", "f", "fk").isEmpty) // direction matters
    assert(cat.findPredef("f", "fid", "p", "id").isEmpty)
  }

  // Differential test: the array path against the Spark reference on random
  // tables with composite (Int, Long, String) primary keys and NULL,
  // dangling and repeated FKs.

  /** Strings whose UTF-16 and code-point orders differ, so the RID order
    * is checked against SQL's byte order. */
  private val genStr = Gen.listOfN(2, Gen.oneOf("", "a", "B", "é", "～", "😀")).map(_.mkString)

  /** Distinct composite keys, in random order. */
  private def genKeys(n: Int): Gen[List[(Int, Long, String)]] =
    Gen.listOfN(n, Gen.zip(Gen.choose(-2, 2), Gen.choose(-2L, 2L), genStr))
      .map(_.distinct)

  /** P: (a Int, b Long, s String, id Long) with unique `id`; F: (fa, fb, fs)
    * plus two nullable FKs drawn from P's ids, dangling values and NULL. */
  private val genDb = for {
    pKeys <- genKeys(20)
    ids   <- Gen.pick(pKeys.size, 1L to 60L)
    fKeys <- genKeys(40)
    fk    = Gen.frequency(6 -> Gen.oneOf(ids.toSeq).map(Option(_)),
              2 -> Gen.choose(100L, 103L).map(Option(_)), 2 -> Gen.const(Option.empty[Long]))
    fks   <- Gen.listOfN(fKeys.size, Gen.zip(fk, fk))
  } yield (pKeys.zip(ids).map { case ((a, b, s), id) => (a, b, s, id) },
           fKeys.zip(fks).map { case ((a, b, s), (x, y)) => (a, b, s, x, y) })

  test("differential: array materialization matches the Spark window + left join reference") {
    val prop = Prop.forAllNoShrink(genDb) { case (pRows, fRows) =>
      val p = pRows.toDF("a", "b", "s", "id")
      val f = fRows.toDF("fa", "fb", "fs", "x", "y")
      val pk = Seq("a", "b", "s")
      val fpk = Seq("fa", "fb", "fs")
      val pjs = Seq(PredefJoin("f", "x", "p", "id"), PredefJoin("f", "y", "p", "id"))
      val cat = frozen(Seq(("p", p, pk), ("f", f, fpk)), pjs: _*)

      val pRef = SparkRidReference.withRid(p, pk)
      val fRef = pjs.foldLeft(SparkRidReference.withRid(f, fpk))((acc, pj) =>
        SparkRidReference.materialize(acc, pj.fkCol, pRef, pj.pkCol))
      val cols = Seq("__rid", "rid_x", "rid_y")
      def byKey(df: DataFrame, key: Seq[String], vals: Seq[String]) =
        df.select((key ++ vals).map(col): _*).collect()
          .map(r => r.toSeq.take(key.size) -> r.toSeq.drop(key.size)).toMap
      val refF = fRef.select(cols.map(col): _*).collect().map(r => cols.map(c => r.getAs[Long](c))).sortBy(_.head)

      val sameP = byKey(cat.ext("p"), pk, Seq("__rid")) == byKey(pRef, pk, Seq("__rid"))
      val sameF = byKey(cat.ext("f"), fpk, cols) == byKey(fRef, fpk, cols)
      val sameDangling = pjs.forall(pj =>
        cat.danglingCounts(("f", pj.fkCol)) == refF.count(_(cols.indexOf(pj.ridCol)) == -1L))
      // The CSR from the reference's arrays: sorted by __rid, so positions
      // are F RIDs.
      val refCsr = RidIndexCsr.build(pRows.size, refF.map(_(1).toInt), refF.map(_(2).toInt))
      val csr = cat.buildRidIndex("f", "x", extendedWith = Some("y"))
      def entries(c: RidIndexCsr, k: Int) =
        (c.offsets(k) until c.offsets(k + 1)).map(i => (c.fRids(i), c.otherRids(i))).toSet
      val sameCsr = csr.nEntries == refCsr.nEntries &&
        (0 until pRows.size).forall(k => entries(csr, k) == entries(refCsr, k))
      val ascending = (0 until pRows.size).forall { k => val fs = Inspect.neighbors(csr, k).toSeq; fs == fs.sorted }
      Prop(sameP) :| "P __rid" && Prop(sameF) :| "F __rid/rid_*" &&
        Prop(sameDangling) :| "danglingCounts" && Prop(sameCsr) :| "CSR" && Prop(ascending) :| "ascending"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(12)
      .withInitialSeed(Seed(20221L)).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
  }
}
