package repro.core

import repro.{Canon, SparkSpec}
import repro.ldbc.{LdbcData, SnbQueries}

/** Spark executor behaviour: sip events, scan accounting, pinned plans. */
class SparkExecSpec extends SparkSpec {

  private lazy val cat = LdbcData.catalog(spark, 0.02)
  private lazy val sc  = LdbcData.scale(0.02)
  private def q(name: String): Query = SnbQueries.queries(sc).find(_.name == name).get

  test("duck mode scans full tables") {
    val (_, m) = new SparkExec(cat, GrainConfig.Duck).run(q("IS2"))
    assert(m.scanned("m1") == cat.rows("comment"))
    assert(m.scanned("m2") == cat.rows("post"))
    assert(m.sipFilters == 0 && m.reverseSemijoins == 0 && m.mergedJoins == 0 && m.ridJoins == 0)
  }

  test("grain mode fires reverse semijoins and reduces comment scans on IS2") {
    val (_, m) = new SparkExec(cat, GrainConfig.Full).run(q("IS2"))
    assert(m.reverseSemijoins >= 1)
    assert(m.scanned("m1") < cat.rows("comment"))
    assert(m.ridJoins > 0)
  }

  test("rid-only config performs forward sip but no reverse semijoins") {
    val (_, m) = new SparkExec(cat, GrainConfig.RidOnly).run(q("IS2"))
    assert(m.reverseSemijoins == 0)
    assert(m.mergedJoins == 0)
    // forward sip still fires: m1 (build, FK side) passes to post scan
    assert(m.sipFilters >= 1)
    assert(m.scanned("m2") < cat.rows("post"))
  }

  test("join merging drops the relationship scan entirely on IC1-1") {
    val (_, mFull) = new SparkExec(cat, GrainConfig.Full).run(q("IC1-1"))
    assert(mFull.mergedJoins == 1)
    assert(mFull.scanned("k") == 0L)
    val (_, mNoJm) = new SparkExec(cat, GrainConfig.NoJm).run(q("IC1-1"))
    assert(mNoJm.mergedJoins == 0)
    assert(mNoJm.scanned("k") > 0L)
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
    val (df, m) = new SparkExec(cat, GrainConfig.Full).run(q("IS4"))
    assert(df.columns.toSet == Set("c_content", "c_creationdate"))
    assert(m.ridJoins == 0)
  }

  test("output column names follow alias_col convention") {
    val (df, _) = new SparkExec(cat, GrainConfig.Duck).run(q("IS5"))
    assert(df.columns.toSet == Set("p_personid", "p_firstname", "p_lastname"))
  }
}
