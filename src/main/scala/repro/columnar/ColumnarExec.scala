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
  * Execution is late-materialized: scans run compiled [[Filter]]s over
  * vectors of row ids, and every intermediate result is a [[Rel]] of
  * row-id vectors, one per alias. Column values are read from the base
  * arrays only for join keys, bitmasks and the final projection or
  * aggregate, which is boxed into an [[Inter]] once.
  */
final class ColumnarExec(store: ColumnStore, cat: GrainCatalog, cfg: GrainConfig) {
  def run(q: Query): (Inter, QueryMetrics) = {
    val m = new QueryMetrics
    val low = GrainPlanner.lower(q, q.plan, cfg, cat)
    val scanFilters = mutable.Map[String, mutable.ArrayBuffer[RowMask]]()
    low.mergedAway.foreach(m.scanned(_) = 0L)

    def rowsOf(alias: String): Int = store(q.ref(alias).table).numRows

    def scan(alias: String): Rel = {
      val r = q.ref(alias)
      val t = store(r.table)
      val test = r.pred.map(Filter(_, t)).getOrElse(Scan.NoPred)
      val filters = scanFilters.getOrElse(alias, mutable.ArrayBuffer.empty)
      val point = cat.pk(r.table).flatMap(pk => r.pointKey(pk).map(pk -> _))
      val out = point match {
        case Some((pk, key)) if filters.isEmpty =>
          // Primary-key point lookup — what lets DuckDB/GRainDB beat the
          // GDBMS's sequential node scan on IS1/IS4-style queries (§7.2.2).
          m.indexLookups += 1
          Scan.rows(t.index(pk).rowsOf(key), test)
        case _ if filters.isEmpty => Scan.all(t, test)
        case _                    => Scan.setBits(t.numRows, filters.reduce(_ and _), test)
      }
      m.scanned(alias) = out.scanned
      m.zonesSkipped += out.zonesSkipped
      Rel.leaf(alias, t, out.rows)
    }

    def exec(p: PhysPlan): Rel = p match {
      case ScanLeaf(a) => scan(a)
      case j: JoinNode =>
        val interL = exec(j.build)
        def colOf(rel: Rel, k: Key): ColRef = rel.col(k.alias, k.col)
        // A build-side key's row mask is built once per node, however many
        // steps start from it.
        val masks = mutable.Map[(Key, Int), RowMask]()
        def maskOf(k: Key)(n: Int): RowMask = masks.getOrElseUpdate((k, n), colOf(interL, k).mask(n))
        j.steps.foreach { s =>
          scanFilters.getOrElseUpdate(s.target, mutable.ArrayBuffer.empty) +=
            s.mask(maskOf(s.from), rowsOf(s.target))
          m.ran(s)
        }

        val interR = exec(j.probe)
        m.joined(j)

        val (li, ri) = j.kind match {
          case IdxMerge(from, idx, to, _) =>
            // SJoinIdxM (§5.2): each build row walks its P1 RID's range of
            // the extended index in place; the P2 RIDs read there probe the
            // probe side, and the node's keys filter the pairs.
            val (ps, os) = idx.walk(colOf(interL, from).ids)
            m.indexLookups += os.length
            val (ri, at) = Join.hash(Seq(colOf(interR, to)), interR.size,
              Seq(new ColRef(s"${from.name}->${to.name}", os, null, rowsOf(to.alias))), os.length)
            Join.where(Rel.gather(ps, at), ri,
              j.keys.map(k => Join.eq(colOf(interL, k.build), colOf(interR, k.probe))))
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
      case None => (Rel.project(spj, q.out), m)
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
    * `sorted` gives them; null strings are not values, and a string column
    * reduces over its order-preserving codes, reading one value at the end.
    */
  private def extreme(c: ColRef, max: Boolean): Any = {
    val ids = c.ids
    c.data match {
      case StringCol(_, codes, dict) =>
        var best = -1
        var i = 0
        while (i < ids.length) {
          val k = codes(ids(i))
          if (k >= 0 && (best < 0 || (if (max) k > best else k < best))) best = k
          i += 1
        }
        if (best < 0) null else dict(best)
      case data =>
        val order: (Int, Int) => Int = data match {
          case DoubleCol(a) => (i, j) => java.lang.Double.compare(a(ids(i)), a(ids(j)))
          case _            => (i, j) => java.lang.Long.compare(c.long(i), c.long(j))
        }
        var best = -1
        var i = 0
        while (i < ids.length) {
          if (best < 0 || { val s = order(i, best); if (max) s > 0 else s < 0 }) best = i
          i += 1
        }
        if (best < 0) null else c.any(best)
    }
  }
}
