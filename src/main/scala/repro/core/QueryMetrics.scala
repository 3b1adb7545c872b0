package repro.core

import scala.collection.mutable

/** Per-query execution metrics of both executors. `scanned` (rows read per
  * alias) drives Table 4's "Scan Reduction" row; the step counts record
  * which lowered steps ran. `probes`, `indexLookups` and `zonesSkipped`
  * are counted by the serial engine only.
  */
final class QueryMetrics {
  val scanned: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap()
  var sipFilters: Int = 0
  var reverseSemijoins: Int = 0
  var mergedJoins: Int = 0
  var ridJoins: Int = 0
  var probes: Long = 0
  var indexLookups: Long = 0
  var zonesSkipped: Long = 0
  def totalScanned: Long = scanned.values.sum

  /** Count a sideways step that ran; a merged join's mask counts with its
    * join in `mergedJoins`. */
  def ran(s: SipStep): Unit = s match {
    case _: Direct     => sipFilters += 1
    case _: MapToF     => reverseSemijoins += 1
    case _: MapToOther =>
  }

  /** Count a join node's RID-keyed edges and its merged join, if any. */
  def joined(j: JoinNode): Unit = {
    ridJoins += j.keys.count(_.rewrite.isDefined)
    if (j.kind.isInstanceOf[IdxMerge]) mergedJoins += 1
  }
}
