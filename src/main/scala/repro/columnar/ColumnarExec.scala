package repro.columnar

import repro.core._
import scala.collection.mutable

/** Boxed result rows of the serial engines: prefixed column names + rows. */
final class Inter(val schema: IndexedSeq[String], val rows: mutable.ArrayBuffer[Array[Any]]) {
  private val byName = schema.zipWithIndex.toMap
  def idx(c: String): Int = byName.getOrElse(c, sys.error(s"no column $c in ${schema.mkString(",")}"))
  def size: Int = rows.size
}

/** Serial single-threaded columnar executor — the same-substrate stand-in for
  * DuckDB (config [[GrainConfig.Duck]]) and GRainDB (other configs) in the
  * three-system SNB-M comparison (Tables 5/6/10).
  *
  * It interprets the plan [[GrainPlanner]] lowers, as [[repro.core.SparkExec]]
  * does, and runs every sideways step the lowering emits: unlike the Spark
  * engine it has no extra pass to pay for, so no step is gated. Zone
  * skipping here is physical: ScanSJ visits only the set bits of the row
  * bitmask, so skipped zones are never touched and "scanned" counts the
  * rows actually read.
  *
  * Execution is late-materialized: scans test compiled predicates on row
  * ids, and every intermediate result is a [[Rel]] of row-id vectors, one
  * per alias. Column values are read from the base arrays only for join
  * keys, bitmasks and the final projection or aggregate, which is boxed
  * into an [[Inter]] once.
  */
final class ColumnarExec(store: ColumnStore, cat: GrainCatalog, cfg: GrainConfig) {
  def run(q: Query, planOverride: Option[Plan] = None): (Inter, QueryMetrics) = {
    val m = new QueryMetrics
    val low = GrainPlanner.lower(q, planOverride.getOrElse(q.plan), cfg, cat)
    val scanFilters = mutable.Map[String, mutable.ArrayBuffer[RowMask]]()
    low.mergedAway.foreach(m.scanned(_) = 0L)

    def rowsOf(alias: String): Int = store(q.ref(alias).table).numRows

    def scan(alias: String): Rel = {
      val tname = q.ref(alias).table
      val t = store(tname)
      val pred = q.ref(alias).pred
      val test = pred.map(CompiledPred(_, t)).getOrElse(Scan.NoPred)
      val filters = scanFilters.getOrElse(alias, mutable.ArrayBuffer.empty)
      val pointKey: Option[Long] = pred.flatMap(pointLookupKey(_, cat.pk(tname)))
      val out =
        if (filters.isEmpty && pointKey.isDefined) {
          // Primary-key point lookup — what lets DuckDB/GRainDB beat the
          // GDBMS's sequential node scan on IS1/IS4-style queries (§7.2.2).
          m.indexLookups += 1
          Scan.rows(t.index(cat.pk(tname).get).getOrElse(pointKey.get, Array.empty[Int]), test)
        } else if (filters.isEmpty) Scan.all(t.numRows, test)
        else Scan.setBits(t.numRows, filters.reduce(_ and _), test)
      m.scanned(alias) = out.scanned
      m.zonesSkipped += out.zonesSkipped
      Rel.leaf(alias, t, out.rows)
    }

    def exec(p: PhysPlan): Rel = p match {
      case ScanLeaf(a) => scan(a)
      case j: JoinNode =>
        val interL = exec(j.build)
        def colOf(rel: Rel, k: Key): ColRef = rel.col(k.alias, k.col)
        j.steps.foreach { s =>
          scanFilters.getOrElseUpdate(s.target, mutable.ArrayBuffer.empty) +=
            s.mask(colOf(interL, s.from).mask, rowsOf(s.target))
          m.ran(s)
        }

        val interR = exec(j.probe)
        m.joined(j)

        val (li, ri) = j.kind match {
          case IdxMerge(from, idx, to, _) =>
            // SJoinIdxM: pairs come straight from the extended index.
            val lRid = colOf(interL, from)
            val lById = new LongMultiMap(lRid, interL.size)
            val rById = new LongMultiMap(colOf(interR, to), interR.size)
            val conds = j.keys.map(k => Join.eq(colOf(interL, k.build), colOf(interR, k.probe))).toArray
            val (ks, os) = idx.pairsFor(lRid.mask(idx.nKeys))
            val lb = new mutable.ArrayBuilder.ofInt
            val rb = new mutable.ArrayBuilder.ofInt
            m.indexLookups += ks.length
            var i = 0
            while (i < ks.length) {
              var l = lById.first(ks(i))
              while (l >= 0) {
                var r = rById.first(os(i))
                while (r >= 0) {
                  if (conds.forall(_(l, r))) { lb += l; rb += r }
                  r = rById.next(r)
                }
                l = lById.next(l)
              }
              i += 1
            }
            (lb.result(), rb.result())
          case CrossJoin => Join.cross(interL.size, interR.size)
          case HashJoin =>
            m.probes += interR.size
            Join.hash(j.keys.map(k => colOf(interL, k.build)), interL.size,
              j.keys.map(k => colOf(interR, k.probe)), interR.size)
        }
        Rel.joined(interL, li, interR, ri)
    }

    val spj = exec(low.root)
    def colOf(oc: OutCol): ColRef = spj.col(oc.alias, oc.col)
    q.agg match {
      case None =>
        val cols = q.out.map(colOf).toArray
        val rows = new mutable.ArrayBuffer[Array[Any]](spj.size)
        var i = 0
        while (i < spj.size) {
          val row = new Array[Any](cols.length)
          var c = 0
          while (c < cols.length) { row(c) = cols(c).any(i); c += 1 }
          rows += row
          i += 1
        }
        (new Inter(q.out.map(_.name).toIndexedSeq, rows), m)
      case Some(a) =>
        // Global aggregates only (what JOB-lite needs); grouped aggregates
        // run on the Spark engine.
        require(a.groupBy.isEmpty, "the serial engine supports global aggregates only")
        val row: Array[Any] = a.aggs.map { ae =>
          ae.fn match {
            case "countstar" => spj.size.toLong
            case "count" =>
              val c = colOf(ae.of.get)
              (0 until spj.size).count(c.any(_) != null).toLong
            case "min" | "max" => extreme(colOf(ae.of.get), max = ae.fn == "max")
            case other => sys.error(s"columnar engine does not aggregate with $other")
          }
        }.toArray
        (new Inter(a.aggs.map(_.as).toIndexedSeq, mutable.ArrayBuffer(row)), m)
    }
  }

  /** MIN or MAX of a column in one pass, null when no value is present. Doubles
    * compare with `java.lang.Double.compare` (NaN above everything), the order
    * `sorted` gives them; null strings are not values.
    */
  private def extreme(c: ColRef, max: Boolean): Any = {
    val ids = c.ids
    val (present, order): (Int => Boolean, (Int, Int) => Int) = c.data match {
      case null | _: LongCol => (_ => true, (i, j) => java.lang.Long.compare(c.long(i), c.long(j)))
      case DoubleCol(a)      => (_ => true, (i, j) => java.lang.Double.compare(a(ids(i)), a(ids(j))))
      case StringCol(a)      => (i => a(ids(i)) != null, (i, j) => a(ids(i)).compareTo(a(ids(j))))
    }
    var best = -1
    var i = 0
    while (i < ids.length) {
      if (present(i) && (best < 0 || { val s = order(i, best); if (max) s > 0 else s < 0 })) best = i
      i += 1
    }
    if (best < 0) null else c.any(best)
  }

  /** Top-level equality on the table's PK (conjuncts allowed). */
  private def pointLookupKey(p: Pred, pk: Option[String]): Option[Long] = pk.flatMap { k =>
    p match {
      case Cmp(c, OpEq, LL(v)) if c == k => Some(v)
      case AndP(ps)                      => ps.collectFirst { case Cmp(c, OpEq, LL(v)) if c == k => v }
      case _                             => None
    }
  }
}

