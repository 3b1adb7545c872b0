package repro.columnar

import org.roaringbitmap.RoaringBitmap
import repro.core._
import scala.collection.mutable

/** Boxed result rows of the serial engines: prefixed column names + rows. */
final class Inter(val schema: IndexedSeq[String], val rows: mutable.ArrayBuffer[Array[Any]]) {
  private val byName = schema.zipWithIndex.toMap
  def idx(c: String): Int = byName.getOrElse(c, sys.error(s"no column $c in ${schema.mkString(",")}"))
  def size: Int = rows.size
}

/** Execution metrics of the serial engine (Table 4 / §7.3 analyses). */
final class ColMetrics {
  val scanned: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap()
  var probes: Long = 0
  var indexLookups: Long = 0
  var zonesSkipped: Long = 0
  def totalScanned: Long = scanned.values.sum
}

/** Serial single-threaded columnar executor — the same-substrate stand-in for
  * DuckDB (config [[GrainConfig.Duck]]) and GRainDB (other configs) in the
  * three-system SNB-M comparison (Tables 5/6/10).
  *
  * Semantics and plan handling mirror [[repro.core.SparkExec]] exactly: left
  * subtree builds, sip passes row/zone bitmasks to probe-side scans, reverse
  * semijoins go through the CSR RID index, and join merging drops eligible
  * relationship leaves. Unlike the Spark engine, zone skipping here is
  * physical: ScanSJ visits only the set bits of the row bitmask, so skipped
  * zones are never touched and "scanned" counts the rows actually read.
  *
  * Execution is late-materialized: scans test compiled predicates on row
  * ids, and every intermediate result is a [[Rel]] of row-id vectors, one
  * per alias. Column values are read from the base arrays only for join
  * keys, bitmasks and the final projection or aggregate, which is boxed
  * into an [[Inter]] once.
  */
final class ColumnarExec(store: ColumnStore, cat: GrainCatalog, cfg: GrainConfig) {
  private def grain = cfg.ridJoins

  def run(q: Query, planOverride: Option[Plan] = None): (Inter, ColMetrics) = {
    val m = new ColMetrics
    val plan0 = planOverride.getOrElse(q.plan)
    val (joins, merged, plan) = JoinMerge.preprocess(q, plan0, cat, enabled = grain && cfg.joinMerge)
    val scanFilters = mutable.Map[String, mutable.ArrayBuffer[RoaringBitmap]]()
    merged.foreach(mj => m.scanned(mj.fAlias) = 0L)

    def isRewritten(j: JoinPred): Option[Rewrites.EdgeRewrite] =
      if (!grain) None else Rewrites.resolve(cat, q, j)

    /** The (alias, column) pair each side of `j` joins on, left side first. */
    def keyCols(j: JoinPred, lSet: Set[String]): ((String, String), (String, String)) = {
      val (a, b) = isRewritten(j) match {
        case Some(Rewrites.FkPk(fkAlias, ridCol, pkAlias, _)) => ((fkAlias, ridCol), (pkAlias, "__rid"))
        case Some(fkfk: Rewrites.FkFk) => ((fkfk.aAlias, fkfk.aRidCol), (fkfk.bAlias, fkfk.bRidCol))
        case None                      => ((j.a, j.acol), (j.b, j.bcol))
      }
      if (lSet(a._1)) (a, b) else (b, a)
    }

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
        else Scan.setBits(t.numRows, filters.reduce((x, y) => RoaringBitmap.and(x, y)), test)
      m.scanned(alias) = out.scanned
      m.zonesSkipped += out.zonesSkipped
      Rel.leaf(alias, t, out.rows)
    }

    def exec(p: Plan): Rel = p match {
      case Lf(a) => scan(a)
      case Jn(pl, pr) =>
        val interL = exec(pl)
        val lSet = pl.aliases.toSet
        val rSet = pr.aliases.toSet
        val connecting = joins.filter(j => (lSet(j.a) && rSet(j.b)) || (lSet(j.b) && rSet(j.a)))
        val connectingMerged = merged.filter(mj =>
          (lSet(mj.a) && rSet(mj.b)) || (lSet(mj.b) && rSet(mj.a)))
        def pushFilter(alias: String, bm: RoaringBitmap): Unit =
          scanFilters.getOrElseUpdate(alias, mutable.ArrayBuffer.empty) += bm

        if (grain && cfg.sip) {
          connecting.foreach { j =>
            isRewritten(j).foreach {
              case Rewrites.FkPk(fkAlias, ridCol, pkAlias, fkCol) =>
                if (lSet(fkAlias)) pushFilter(pkAlias, interL.col(fkAlias, ridCol).bitmap)
                else if (cfg.reverseSemijoin) {
                  cat.ridIndex(q.ref(fkAlias).table, fkCol).foreach { idx =>
                    pushFilter(fkAlias, idx.mapToF(interL.col(pkAlias, "__rid").bitmap))
                  }
                }
              case fkfk: Rewrites.FkFk if cfg.reverseSemijoin =>
                val (lAlias, lRid, rAlias, rFkCol) =
                  if (lSet(fkfk.aAlias)) (fkfk.aAlias, fkfk.aRidCol, fkfk.bAlias, fkfk.bFkCol)
                  else (fkfk.bAlias, fkfk.bRidCol, fkfk.aAlias, fkfk.aFkCol)
                cat.ridIndex(q.ref(rAlias).table, rFkCol).foreach { idx =>
                  pushFilter(rAlias, idx.mapToF(interL.col(lAlias, lRid).bitmap))
                }
              case _: Rewrites.FkFk => // index use disabled in this config
            }
          }
          connectingMerged.foreach { mj =>
            val (aAlias, bAlias, aFk) =
              if (lSet(mj.a)) (mj.a, mj.b, mj.aFk) else (mj.b, mj.a, mj.bFk)
            cat.ridIndex(mj.fTable, aFk).filter(_.extended).foreach { idx =>
              pushFilter(bAlias, idx.mapToOther(interL.col(aAlias, "__rid").bitmap))
            }
          }
        }

        val interR = exec(pr)

        require(connectingMerged.size <= 1,
          s"${q.name}: at most one merged edge may bind per join node")
        val (li, ri) = connectingMerged.headOption match {
          case Some(mj) =>
            val (aAlias, bAlias, aFk) =
              if (lSet(mj.a)) (mj.a, mj.b, mj.aFk) else (mj.b, mj.a, mj.bFk)
            val idx = cat.ridIndex(mj.fTable, aFk).filter(_.extended)
              .getOrElse(sys.error(s"join merge needs extended index on ${mj.fTable}.$aFk"))
            // SJoinIdxM: pairs come straight from the extended index.
            val lRid = interL.col(aAlias, "__rid")
            val lById = new LongMultiMap(lRid, interL.size)
            val rById = new LongMultiMap(interR.col(bAlias, "__rid"), interR.size)
            val conds = connecting.map { j =>
              val ((la, lc), (ra, rc)) = keyCols(j, lSet)
              Join.eq(interL.col(la, lc), interR.col(ra, rc))
            }.toArray
            val (ks, os) = idx.pairsFor(lRid.bitmap)
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
          case None if connecting.isEmpty => Join.cross(interL.size, interR.size)
          case None =>
            val keys = connecting.map(keyCols(_, lSet))
            m.probes += interR.size
            Join.hash(keys.map { case ((a, c), _) => interL.col(a, c) }, interL.size,
              keys.map { case (_, (a, c)) => interR.col(a, c) }, interR.size)
        }
        Rel.joined(interL, li, interR, ri)
    }

    val spj = exec(plan)
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

