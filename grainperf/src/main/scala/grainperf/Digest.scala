package grainperf

import repro.columnar.Inter
import scala.util.hashing.MurmurHash3

/** Order-independent digest of a query result: the row count and the
  * wrapping sum of a 64-bit hash per canonical row. Rows are canonical as in
  * the repository's equivalence suites: columns ordered by name, doubles to
  * six decimals, null as ∅.
  */
final case class Digest(rows: Long, hash: Long) {
  override def toString: String = f"$rows%d:$hash%016x"
}

object Digest {
  def cell(v: Any): String = v match {
    case null      => "∅"
    case d: Double => f"$d%.6f"
    case x         => x.toString
  }

  def hash64(s: String): Long =
    (MurmurHash3.stringHash(s, 0x3c6ef372).toLong << 32) |
      (MurmurHash3.stringHash(s, 0x1b873593).toLong & 0xffffffffL)

  def of(in: Inter): Digest = {
    val order = in.schema.zipWithIndex.sortBy(_._1).map(_._2).toArray
    var h = 0L
    val sb = new java.lang.StringBuilder
    in.rows.foreach { r =>
      sb.setLength(0)
      order.foreach(i => sb.append(cell(r(i))).append('\u0001'))
      h += hash64(sb.toString)
    }
    Digest(in.rows.size.toLong, h)
  }
}
