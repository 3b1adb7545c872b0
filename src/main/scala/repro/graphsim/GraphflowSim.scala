package repro.graphsim

import repro.columnar.{ColumnStore, Filter, Inter, Join, Rel, Scan, TableData}
import repro.core._

/** Metrics of the GDBMS-style execution (the access-pattern story of §7.3.2). */
final class GfMetrics {
  var scanned: Long = 0        // rows read by the initial sequential node scan
  var indexLookups: Long = 0   // probes into the adjacency (value) index
  var extendedTuples: Long = 0 // intermediate tuples produced by EXTEND
  var propertyReads: Long = 0  // random-access property fetches after joins
}

/** A GraphflowDB-style executor: serial, left-deep plans whose join operator
  * is EXTEND — an index nested loop join into a value -> row ids index (the
  * adjacency-list index analogue, [[repro.columnar.TableData.index]]). It
  * runs on the same substrate as [[repro.columnar.ColumnarExec]]: compiled
  * [[repro.columnar.Filter]]s on row ids, [[Rel]] intermediates and one
  * shared projection.
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

  def run(q: Query): (Inter, GfMetrics) = {
    val m = new GfMetrics
    val order = q.gfOrder.getOrElse(q.refs.map(_.alias))
    require(order.toSet == q.refs.map(_.alias).toSet, s"${q.name}: bad INLJ order")
    require(q.agg.isEmpty, "graphsim runs SPJ queries only (SNB-M)")

    def predOf(alias: String, t: TableData): Filter =
      q.ref(alias).pred.map(Filter(_, t)).getOrElse(Scan.NoPred)

    // Initial sequential scan of the first table.
    val a0 = order.head
    val t0 = store(q.ref(a0).table)
    val first = Scan.all(t0, predOf(a0, t0))
    m.scanned += first.scanned
    var rel = Rel.leaf(a0, t0, first.rows)

    // EXTEND one alias at a time.
    var bound = Set(a0)
    order.tail.foreach { b =>
      val tb = store(q.ref(b).table)
      val connecting = q.joins.filter(j =>
        (bound(j.a) && j.b == b) || (bound(j.b) && j.a == b))
      require(connecting.nonEmpty, s"${q.name}: INLJ order disconnects at $b")
      val main = connecting.head
      val (aAlias, aCol) = main.other(b)
      val key = rel.col(aAlias, aCol)
      require(key.isLong, s"${q.name}: INLJ key ${key.name} must be long")
      val extraJoins = connecting.tail.map { j =>
        val (oa, oc) = j.other(b)
        Join.eq(rel.col(oa, oc), tb.ref(j.colOf(b)))
      }
      val pred = predOf(b, tb)
      // Every extended tuple is enumerated first; its properties are then
      // fetched by random access, and only then are the extra join
      // conditions and the extended table's predicates evaluated.
      val (rows, at) = tb.index(main.colOf(b)).pairs(key, rel.size)
      m.indexLookups += rel.size
      m.extendedTuples += rows.length
      m.propertyReads += q.neededCols(b).size.toLong * rows.length
      val (li, ri) = Join.where(at, rows, extraJoins :+ ((_: Int, r: Int) => pred(r)))
      rel = Rel.extended(rel, li, b, tb, ri)
      bound += b
    }

    (Rel.project(rel, q.out), m)
  }
}
