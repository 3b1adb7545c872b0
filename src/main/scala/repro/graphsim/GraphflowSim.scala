package repro.graphsim

import repro.columnar.{ColumnStore, CompiledPred, Inter, Scan}
import repro.core._
import scala.collection.mutable

/** Metrics of the GDBMS-style execution (the access-pattern story of §7.3.2). */
final class GfMetrics {
  var scanned: Long = 0        // rows read by the initial sequential node scan
  var indexLookups: Long = 0   // probes into the adjacency (value) index
  var extendedTuples: Long = 0 // intermediate tuples produced by EXTEND
  var propertyReads: Long = 0  // random-access property fetches after joins
}

/** A GraphflowDB-style executor: serial, left-deep plans whose join operator
  * is EXTEND — an index nested loop join into a value→row-ids index (the
  * adjacency-list index analogue built by [[ColumnStore.TableData.index]]).
  *
  * Deliberately reproduced GDBMS behaviours (per §7.2.2/§7.3.2):
  *   - the first table is always *sequentially scanned* and filtered, even
  *     for point lookups (no primary-key index) — why GRainDB wins IS1/IS4;
  *   - joins always proceed from bound tuples into the index, so selective
  *     predicates on the *extended* (edge) table cannot be applied before
  *     the join — they filter the 2.7M-style intermediate result instead;
  *   - properties of extended rows are fetched by random access after the
  *     join, not by a sequential filter-then-join scan.
  */
final class GraphflowSim(store: ColumnStore) {

  def run(q: Query, orderOverride: Option[Seq[String]] = None): (Inter, GfMetrics) = {
    val m = new GfMetrics
    val order = orderOverride.orElse(q.gfOrder).getOrElse(q.refs.map(_.alias))
    require(order.toSet == q.refs.map(_.alias).toSet, s"${q.name}: bad INLJ order")
    require(q.agg.isEmpty, "graphsim runs SPJ queries only (SNB-M)")

    def pfx(alias: String, c: String) = s"${alias}_$c"
    def needed(alias: String): IndexedSeq[String] = q.neededCols(alias).toIndexedSeq

    // Initial sequential scan of the first table.
    val a0 = order.head
    val t0 = store(q.ref(a0).table)
    val cols0 = needed(a0)
    val colData0 = cols0.map(t0.col)
    var inter = {
      val rows = mutable.ArrayBuffer[Array[Any]]()
      val pred = q.ref(a0).pred.map(CompiledPred(_, t0)).getOrElse(Scan.NoPred)
      var i = 0
      while (i < t0.numRows) {
        m.scanned += 1
        if (pred(i)) {
          rows += colData0.map(_.any(i)).toArray
        }
        i += 1
      }
      new Inter(cols0.map(pfx(a0, _)), rows)
    }

    // EXTEND one alias at a time.
    var bound = Set(a0)
    order.tail.foreach { b =>
      val tb = store(q.ref(b).table)
      val connecting = q.joins.filter(j =>
        (bound(j.a) && j.b == b) || (bound(j.b) && j.a == b))
      require(connecting.nonEmpty, s"${q.name}: INLJ order disconnects at $b")
      val main = connecting.head
      val (aAlias, aCol) = main.other(b)
      val bCol = main.colOf(b)
      val idx = tb.index(bCol)
      val keyIdx = inter.idx(pfx(aAlias, aCol))
      val colsB = needed(b)
      val colDataB = colsB.map(tb.col)
      val extraJoins = connecting.tail.map { j =>
        val (oa, oc) = j.other(b)
        (inter.idx(pfx(oa, oc)), j.colOf(b))
      }
      val pred = q.ref(b).pred.map(CompiledPred(_, tb)).getOrElse(Scan.NoPred)
      val rows = mutable.ArrayBuffer[Array[Any]]()
      inter.rows.foreach { row =>
        val key = row(keyIdx) match {
          case l: Long => l
          case x       => sys.error(s"${q.name}: INLJ key must be long, got $x")
        }
        m.indexLookups += 1
        idx.get(key).foreach { matches =>
          var k = 0
          while (k < matches.length) {
            val ri = matches(k)
            m.extendedTuples += 1
            // Property fetch happens after the join (random access), and only
            // then are predicates on the extended table evaluated.
            m.propertyReads += colsB.length
            val okExtra = extraJoins.forall { case (ii, c) =>
              row(ii) == tb.col(c).any(ri)
            }
            if (okExtra && pred(ri)) {
              rows += (row ++ colDataB.map(_.any(ri)))
            }
            k += 1
          }
        }
      }
      inter = new Inter(inter.schema ++ colsB.map(pfx(b, _)), rows)
      bound += b
    }

    val outIdx = q.out.map(oc => inter.idx(oc.name)).toArray
    (new Inter(q.out.map(_.name).toIndexedSeq, inter.rows.map(r => outIdx.map(r))), m)
  }
}
