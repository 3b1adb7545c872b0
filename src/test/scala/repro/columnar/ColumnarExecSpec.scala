package repro.columnar

import repro.SparkSpec
import repro.core._
import repro.ldbc.{LdbcData, SnbQueries}

/** Serial engine behaviour: physical zone skipping, point lookups, metrics.
  * (Result correctness against the oracle is covered by SnbEquivalenceSpec.)
  */
class ColumnarExecSpec extends SparkSpec {

  private lazy val cat   = LdbcData.catalog(spark, 0.02)
  private lazy val store = ColumnStore.of(cat)
  private lazy val sc    = LdbcData.scale(0.02)
  private def q(name: String): Query = SnbQueries.queries(sc).find(_.name == name).get

  test("duck config scans full tables and skips no zones") {
    val (_, m) = new ColumnarExec(store, cat, GrainConfig.Duck).run(q("IC2"))
    assert(m.scanned("c") == cat.rows("comment"))
    assert(m.zonesSkipped == 0)
  }

  test("grain config physically skips zones on sip-filtered scans") {
    // one person's comments: the reverse semijoin leaves a 1024-row zone of
    // comment without a set bit
    val (_, m) = new ColumnarExec(store, cat, GrainConfig.Full).run(q("IS2"))
    assert(m.scanned("m1") < cat.rows("comment"))
    assert(m.zonesSkipped > 0)
  }

  test("point lookups use the PK index instead of scanning (IS4)") {
    val (_, m) = new ColumnarExec(store, cat, GrainConfig.Duck).run(q("IS4"))
    assert(m.scanned("c") == 1L)
    assert(m.indexLookups == 1)
  }

  test("a PK equality among conjuncts is still a point lookup") {
    val is4 = q("IS4")
    val c = is4.refs.head
    val both = is4.copy(refs = Seq(c.copy(pred = Some(Pred.and(Pred.gtS("content", ""), c.pred.get)))))
    val exec = new ColumnarExec(store, cat, GrainConfig.Duck)
    val (r, m) = exec.run(both)
    assert(m.scanned("c") == 1L && m.indexLookups == 1)
    assert(r.rows.map(_.toSeq) == exec.run(is4)._1.rows.map(_.toSeq))
  }

  test("join merging records zero scan for the dropped relationship leaf") {
    val (_, m) = new ColumnarExec(store, cat, GrainConfig.Full).run(q("IC1-1"))
    assert(m.scanned("k") == 0L)
  }

  test("probe counts drop when sip prunes the probe side") {
    val (_, md) = new ColumnarExec(store, cat, GrainConfig.Duck).run(q("IC2"))
    val (_, mg) = new ColumnarExec(store, cat, GrainConfig.Full).run(q("IC2"))
    assert(mg.probes < md.probes)
  }

  test("ablation: total scan monotonically decreases across configs") {
    val configs = Seq(GrainConfig.Duck, GrainConfig.RidOnly, GrainConfig.NoJm, GrainConfig.Full)
    val scans = configs.map(c =>
      new ColumnarExec(store, cat, c).run(q("IC2"))._2.totalScanned)
    assert(scans.sliding(2).forall(p => p(1) <= p(0)), scans.toString)
  }

  test("running every query twice leaves each table's shared identity vector as it was") {
    def counters(m: QueryMetrics) = (m.scanned, m.probes, m.indexLookups, m.zonesSkipped)
    for (cfg <- Seq(GrainConfig.Duck, GrainConfig.RidOnly, GrainConfig.NoJm, GrainConfig.Full)) {
      // one executor per config: the second run executes the plan the first kept
      val exec = new ColumnarExec(store, cat, cfg)
      for (query <- SnbQueries.queries(sc)) {
        val (first, m1) = exec.run(query)
        assert(exec.plan(query) eq exec.plan(query), s"${query.name} $cfg")
        val (second, m2) = exec.run(query)
        assert(second.rows.map(_.toSeq) == first.rows.map(_.toSeq), s"${query.name} $cfg")
        assert(counters(m2) == counters(m1), s"${query.name} $cfg")
      }
    }
    val gf = new repro.graphsim.GraphflowSim(store)
    for (query <- SnbQueries.queries(sc))
      assert(gf.run(query)._1.rows.map(_.toSeq) == gf.run(query)._1.rows.map(_.toSeq), query.name)
    for (t <- store.tables.values) {
      assert(t.allRows.toSeq == (0 until t.numRows), t.name)
      assert(!t.colNames.contains("__rid"), t.name)
    }
  }

  test("global MIN/MAX order doubles as sorted does (NaN above all) and skip null strings") {
    import spark.implicits._
    val tcat = new GrainCatalog(spark)
    tcat.register("agg_t", Seq[(Long, Double, String)](
      (1L, 2.5, "b"), (2L, Double.NaN, null), (3L, -0.0, "a"), (4L, 0.0, "c")).toDF("id", "x", "s"), Seq("id"))
    tcat.freeze()
    val tstore = new ColumnStore
    tstore.load("agg_t", tcat.ext("agg_t"))
    val cols = Seq("id", "x", "s")
    val aggs = cols.flatMap(c => Seq(AggExpr("min", Some(OutCol("t", c)), s"min_$c"),
      AggExpr("max", Some(OutCol("t", c)), s"max_$c"))) ++
      Seq(AggExpr("count", Some(OutCol("t", "s")), "cnt_s"), AggExpr("countstar", None, "n"))
    def query(pred: Option[Pred]) =
      Query("agg", Seq(TableRef("t", "agg_t", pred)), Nil, Nil, Some(AggSpec(Nil, aggs)))
    // The aggregate as a sort of the non-null values would give it.
    def bySorting(rows: Seq[Int]): Seq[Any] = {
      def vs(c: String) = rows.map(tstore("agg_t").col(c).any).filter(_ != null)
      def ends[T: Ordering](xs: Seq[T]): Seq[Any] =
        if (xs.isEmpty) Seq(null, null) else { val s = xs.sorted; Seq(s.head, s.last) }
      ends(vs("id").map(_.asInstanceOf[Long])) ++ ends(vs("x").map(_.asInstanceOf[Double])) ++
        ends(vs("s").map(_.asInstanceOf[String])) ++ Seq(vs("s").size.toLong, rows.size.toLong)
    }
    for (cfg <- Seq(GrainConfig.Duck, GrainConfig.Full)) {
      val (all, _) = new ColumnarExec(tstore, tcat, cfg).run(query(None))
      assert(all.rows.head.toSeq.map(String.valueOf) == bySorting(0 until 4).map(String.valueOf))
      assert(all.rows.head(all.idx("max_x")).asInstanceOf[Double].isNaN)
      val (none, _) = new ColumnarExec(tstore, tcat, cfg).run(query(Some(Pred.eqL("id", 99))))
      assert(none.rows.head.toSeq == bySorting(Nil))
    }
  }

  test("Inter exposes schema-addressed columns") {
    val (inter, _) = new ColumnarExec(store, cat, GrainConfig.Duck).run(q("IS5"))
    assert(inter.schema.toSet == Set("p_personid", "p_firstname", "p_lastname"))
    assert(inter.idx("p_personid") >= 0)
    intercept[RuntimeException](inter.idx("nope"))
  }
}
