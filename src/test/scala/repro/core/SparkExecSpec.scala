package repro.core

import org.apache.spark.sql.functions.{col, udf}
import repro.{Canon, Oracle, SparkSpec, StepCounts}
import repro.columnar.{ColumnStore, ColumnarExec, LongCol}
import repro.ldbc.{LdbcData, SnbQueries}

/** A value that changes on every evaluation. An object, not a captured
  * counter: Spark copies a closure's state into each task. */
object Ticker {
  private val n = new java.util.concurrent.atomic.AtomicLong
  def next(): Long = n.incrementAndGet()
}

/** Spark executor behaviour: kept plans and their sip steps, scan
  * accounting, pinned plans, and the frozen tables every engine scans. */
class SparkExecSpec extends SparkSpec {

  private lazy val cat = LdbcData.catalog(spark, 0.02)
  private lazy val sc  = LdbcData.scale(0.02)
  private def q(name: String): Query = SnbQueries.queries(sc).find(_.name == name).get

  /** The query's plan in `exec` and one run of it. */
  private def planAndRun(exec: SparkExec, query: Query): ((Int, Int, Int, Int), QueryMetrics) =
    (StepCounts.of(exec.plan(query)), exec.run(query)._2)

  test("duck mode scans full tables") {
    val (steps, m) = planAndRun(new SparkExec(cat, GrainConfig.Duck), q("IS2"))
    assert(m.scanned("m1") == cat.rows("comment"))
    assert(m.scanned("m2") == cat.rows("post"))
    assert(steps == ((0, 0, 0, 0)))
  }

  test("grain mode fires reverse semijoins and reduces comment scans on IS2") {
    val ((_, reverseSemijoins, _, ridJoins), m) = planAndRun(new SparkExec(cat, GrainConfig.Full), q("IS2"))
    assert(reverseSemijoins >= 1)
    assert(m.scanned("m1") < cat.rows("comment"))
    assert(ridJoins > 0)
  }

  test("rid-only config performs forward sip but no reverse semijoins") {
    val ((sipFilters, reverseSemijoins, mergedJoins, _), m) =
      planAndRun(new SparkExec(cat, GrainConfig.RidOnly), q("IS2"))
    assert(reverseSemijoins == 0)
    assert(mergedJoins == 0)
    // forward sip still fires: m1 (build, FK side) passes to post scan
    assert(sipFilters >= 1)
    assert(m.scanned("m2") < cat.rows("post"))
  }

  test("join merging drops the relationship scan entirely on IC1-1") {
    val ((_, _, mergedFull, _), mFull) = planAndRun(new SparkExec(cat, GrainConfig.Full), q("IC1-1"))
    assert(mergedFull == 1)
    assert(mFull.scanned("k") == 0L)
    val ((_, _, mergedNoJm, _), mNoJm) = planAndRun(new SparkExec(cat, GrainConfig.NoJm), q("IC1-1"))
    assert(mergedNoJm == 0)
    assert(mNoJm.scanned("k") > 0L)
  }

  /** `p` with the steps `drop` picks taken out of its join nodes. */
  private def without(p: PhysPlan, drop: SipStep => Boolean): PhysPlan = p match {
    case leaf: ScanLeaf => leaf
    case j: JoinNode => j.copy(build = without(j.build, drop), probe = without(j.probe, drop),
      steps = j.steps.filterNot(drop))
  }

  test("a kept plan is lower's plan minus the gated steps, and runs repeatedly") {
    // (source, target) of the steps the sip-benefit gate drops under Full:
    // none on IS2 and IC1-1, a MapToF on IC4, and both kinds on IC5-2
    val gated = Map(
      "IS2" -> Set.empty[(Key, String)],
      "IC1-1" -> Set.empty[(Key, String)],
      "IC4" -> Set(Key("p2", "__rid") -> "ps"),
      "IC5-2" -> Set(Key("p2", "__rid") -> "fp", Key("fp", "rid_forumid") -> "f",
        Key("k2", "rid_person2id") -> "p2"))
    val exec = new SparkExec(cat, GrainConfig.Full)
    for ((name, drop) <- gated) {
      val query = q(name)
      val (first, m1) = exec.run(query)
      val kept = exec.plan(query)
      assert(kept eq exec.plan(query), name)
      val lowered = GrainPlanner.lower(query, GrainConfig.Full, cat)
      val dropped = lowered.joins.flatMap(_.steps).toSet -- kept.joins.flatMap(_.steps)
      assert(dropped.map(s => s.from -> s.target) == drop, name)
      assert(kept == without(lowered, dropped), name)
      val (second, m2) = exec.run(query)
      assert(Canon.ofDf(second) == Canon.ofDf(first), name)
      assert(m2.scanned == m1.scanned, name)
    }
  }

  test("ablation configs scan monotonically less as optimizations turn on") {
    val duck = new SparkExec(cat, GrainConfig.Duck).run(q("IC2"))._2.totalScanned
    val rid  = new SparkExec(cat, GrainConfig.RidOnly).run(q("IC2"))._2.totalScanned
    val rsj  = new SparkExec(cat, GrainConfig.NoJm).run(q("IC2"))._2.totalScanned
    val full = new SparkExec(cat, GrainConfig.Full).run(q("IC2"))._2.totalScanned
    assert(rid <= duck && rsj <= rid && full <= rsj)
  }

  test("plan override changes the join tree but not the result") {
    val query = q("IS3")
    val exec = new SparkExec(cat, GrainConfig.Duck)
    val default = Canon.ofDf(exec.run(query)._1)
    // reversed order: person2 side first
    val alt = Jn(Jn(Lf("p2"), Lf("k")), Lf("p1"))
    assert(Canon.ofDf(exec.run(query.copy(planOpt = Some(alt)))._1) == default)
  }

  test("single-table query needs no joins") {
    val exec = new SparkExec(cat, GrainConfig.Full)
    val (df, _) = exec.run(q("IS4"))
    assert(df.columns.toSet == Set("c_content", "c_creationdate"))
    assert(exec.plan(q("IS4")).joins.isEmpty)
  }

  test("output column names follow alias_col convention") {
    val (df, _) = new SparkExec(cat, GrainConfig.Duck).run(q("IS5"))
    assert(df.columns.toSet == Set("p_personid", "p_firstname", "p_lastname"))
  }

  test("every engine reads the frozen snapshot of a registered table") {
    // s.v is a generator that yields new values each time it is evaluated;
    // freeze() evaluates it once, and every engine must see those values.
    val tick = udf(() => Ticker.next()).asNondeterministic()
    val c = GrainCatalog.build(spark,
      Seq("s" -> spark.range(20).select(col("id").as("sid"), tick().as("v")),
        "f" -> spark.range(60).select(col("id").as("fid"), (col("id") % 20).as("sid"))),
      Map("s" -> Seq("sid"), "f" -> Seq("fid")), Seq(PredefJoin("f", "sid", "s", "sid"))).indexAll(Nil)
    val query = Query("snapshot", Seq(TableRef("f", "f"), TableRef("s", "s")),
      Seq(JoinPred("f", "sid", "s", "sid")), Seq(OutCol("f", "fid"), OutCol("s", "v")))
    val store = ColumnStore.of(c)
    def longs(t: String, cn: String): Array[Long] = store(t).col(cn).asInstanceOf[LongCol].a
    val vOf = longs("s", "sid").zip(longs("s", "v")).toMap
    val frozen = Oracle.canon(Seq("f_fid", "s_v"),
      longs("f", "fid").zip(longs("f", "sid")).toSeq.map { case (fid, sid) => Seq(fid, vOf(sid)) })
    val duck = new SparkExec(c, GrainConfig.Duck)
    assert(Canon.ofDf(duck.run(query)._1) == frozen, "spark-duck")
    assert(Canon.ofDf(duck.run(query)._1) == frozen, "spark-duck, second run")
    assert(Canon.ofDf(new SparkExec(c, GrainConfig.Full).run(query)._1) == frozen, "spark-grain")
    for (cfg <- Seq(GrainConfig.Duck, GrainConfig.Full))
      assert(Canon.ofInter(new ColumnarExec(store, c, cfg).run(query)._1) == frozen, s"columnar[$cfg]")
  }
}
