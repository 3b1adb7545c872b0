package repro.core

import scala.collection.mutable

/** Per-query run-time measurements of both executors. `scanned` (rows read
  * per alias) drives Table 4's "Scan Reduction" row. `probes`,
  * `indexLookups` and `zonesSkipped` are counted by the serial engine only.
  * Which steps a query has is a fact of its plan (`plan(q)` of either
  * executor), not a measurement.
  */
final class QueryMetrics {
  val scanned: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap()
  var probes: Long = 0
  var indexLookups: Long = 0
  var zonesSkipped: Long = 0
  def totalScanned: Long = scanned.values.sum
}
