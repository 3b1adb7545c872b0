package repro.graphsim

import repro.SparkSpec
import repro.core._
import repro.core.Pred._
import repro.columnar.{ColumnStore, ColumnarExec}
import repro.ldbc.{LdbcData, SnbQueries}

/** GDBMS-simulator behaviour — the §7.2.2 / §7.3.2 access-pattern story. */
class GraphflowSimSpec extends SparkSpec {

  private lazy val cat   = LdbcData.catalog(spark, 0.02)
  private lazy val store = ColumnStore.of(cat)
  private lazy val sc    = LdbcData.scale(0.02)
  private def q(name: String): Query = SnbQueries.queries(sc).find(_.name == name).get

  test("point lookups still sequentially scan the first table (no PK index)") {
    val (_, m) = new GraphflowSim(store).run(q("IS4"))
    assert(m.scanned == cat.rows("comment")) // GRainDB scans 1 row here
  }

  test("index lookups are proportional to bound tuples, not table size") {
    val (_, m) = new GraphflowSim(store).run(q("IS3"))
    // one person passes id=42, so exactly one lookup into the knows index
    assert(m.indexLookups >= 1 && m.indexLookups < cat.rows("knows"))
  }

  test("selective edge predicates do not cut EXTEND work (filters run after)") {
    // MICRO-K style: a 0.1%-selective predicate on knows.creationdate over a
    // one-hop (person)-[knows] pattern.
    def oneHop(kPred: Option[Pred]) = Query("micro-k",
      refs = Seq(TableRef("p1", "person", Some(eqL("id", LdbcData.ParamPersonId))),
        TableRef("k", "knows", kPred)),
      joins = Seq(JoinPred("p1", "personid", "k", "person1id")),
      out = Seq(OutCol("k", "creationdate")),
      gfOrder = Some(Seq("p1", "k")))
    val base = oneHop(None)
    val selective = oneHop(Some(lt("creationdate", LdbcData.DateLo + 60000)))
    val (_, mBase) = new GraphflowSim(store).run(base)
    val (_, mSel)  = new GraphflowSim(store).run(selective)
    // the INLJ enumerates the same extended tuples either way: the filter
    // cannot run before the join
    assert(mSel.extendedTuples == mBase.extendedTuples)
    assert(mSel.propertyReads == mBase.propertyReads)
    // whereas the hash-join engine scans the edge table sequentially and
    // filters it before probing
    val (_, cSel) = new ColumnarExec(store, cat, GrainConfig.Duck).run(selective)
    assert(cSel.scanned("k") == cat.rows("knows"))
    assert(cSel.probes < cat.rows("knows")) // probes only the filtered rows
  }

  test("property fetches happen per extended tuple (random access accounting)") {
    val (_, m) = new GraphflowSim(store).run(q("IS3"))
    assert(m.propertyReads > 0)
  }

  test("an explicit order override is honoured and validated") {
    val query = q("IS5")
    val (interA, _) = new GraphflowSim(store).run(query.copy(gfOrder = Some(Seq("c", "p"))))
    assert(interA.size >= 0)
    intercept[IllegalArgumentException](
      new GraphflowSim(store).run(query.copy(gfOrder = Some(Seq("p")))))
  }
}
