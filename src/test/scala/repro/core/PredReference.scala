package repro.core

import java.nio.charset.StandardCharsets.UTF_8

/** Row-at-a-time evaluation of a [[Pred]] over boxed values: the reference
  * semantics that the compiled [[repro.columnar.Filter]]s are tested
  * against. Numeric comparisons go through `toDouble`, strings compare by
  * their UTF-8 bytes, a null never matches, in-lists compare only against
  * literals of the value's own type, and an incomparable value/literal pair
  * fails.
  */
object PredReference {
  /** Whether the row `get` reads satisfies `p`. */
  def eval(p: Pred, get: String => Any): Boolean = p match {
    case Cmp(c, op, l) =>
      val v = get(c)
      (v, l) match {
        case (x: Long, LL(y))     => cmpNum(x.toDouble, y.toDouble, op)
        case (x: Int, LL(y))      => cmpNum(x.toDouble, y.toDouble, op)
        case (x: Long, LD(y))     => cmpNum(x.toDouble, y, op)
        case (x: Double, LD(y))   => cmpNum(x, y, op)
        case (x: Double, LL(y))   => cmpNum(x, y.toDouble, op)
        case (x: String, LS(y))   => cmpStr(x, y, op)
        case (null, _)            => false
        case (x, y)               => sys.error(s"incomparable $x vs $y")
      }
    case InList(c, ls) =>
      val v = get(c)
      ls.exists(l => (v, l) match {
        case (x: Long, LL(y))   => x == y
        case (x: Int, LL(y))    => x.toLong == y
        case (x: String, LS(y)) => x == y
        case (x: Double, LD(y)) => x == y
        case _                  => false
      })
    case AndP(ps) => ps.forall(eval(_, get))
    case OrP(ps)  => ps.exists(eval(_, get))
  }

  private def cmpNum(x: Double, y: Double, op: Op): Boolean = op match {
    case OpEq => x == y
    case OpNe => x != y
    case OpLt => x < y
    case OpLe => x <= y
    case OpGt => x > y
    case OpGe => x >= y
  }
  private def cmpStr(x: String, y: String, op: Op): Boolean = {
    val c = compareStrings(x, y)
    op match {
      case OpEq => c == 0
      case OpNe => c != 0
      case OpLt => c < 0
      case OpLe => c <= 0
      case OpGt => c > 0
      case OpGe => c >= 0
    }
  }

  /** SQL's string order, defined apart from [[CodePointOrder]]: by the
    * strings' UTF-8 bytes, unsigned. */
  def compareStrings(x: String, y: String): Int =
    java.util.Arrays.compareUnsigned(x.getBytes(UTF_8), y.getBytes(UTF_8))
}
