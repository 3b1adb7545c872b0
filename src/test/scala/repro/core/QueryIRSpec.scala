package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.imdb.JobQueries
import repro.ldbc.{LdbcData, SnbQueries}

/** Structural sanity of every benchmark query: connected pinned plans,
  * resolvable aliases, valid INLJ orders.
  */
class QueryIRSpec extends AnyFunSuite {

  private def connectedLeftDeep(q: Query): Unit = {
    def aliasesOf(p: Plan): Seq[String] = p.aliases
    def check(p: Plan): Unit = p match {
      case Lf(_) => ()
      case Jn(l, r) =>
        check(l); check(r)
        val lSet = aliasesOf(l).toSet
        val rSet = aliasesOf(r).toSet
        val connecting = q.joins.count(j =>
          (lSet(j.a) && rSet(j.b)) || (lSet(j.b) && rSet(j.a)))
        assert(connecting > 0,
          s"${q.name}: cross join between ${lSet.mkString(",")} and ${rSet.mkString(",")}")
    }
    check(q.plan)
  }

  private val allQueries =
    JobQueries.queries ++ SnbQueries.queries(LdbcData.scale(0.02))

  for (q <- allQueries) {
    test(s"${q.name}: pinned plan is connected (no cross joins)") {
      if (q.refs.size > 1) connectedLeftDeep(q)
    }
    test(s"${q.name}: every join references a declared alias/column") {
      val aliases = q.refs.map(_.alias).toSet
      q.joins.foreach { j =>
        assert(aliases(j.a) && aliases(j.b), s"${q.name}: join $j has unknown alias")
      }
      q.out.foreach(oc => assert(aliases(oc.alias)))
    }
    test(s"${q.name}: INLJ order (if any) is valid") {
      q.gfOrder.foreach { order =>
        assert(order.toSet == q.refs.map(_.alias).toSet)
        var bound = Set(order.head)
        order.tail.foreach { b =>
          assert(q.joins.exists(j =>
            (bound(j.a) && j.b == b) || (bound(j.b) && j.a == b)),
            s"${q.name}: INLJ order disconnects at $b")
          bound += b
        }
      }
    }
  }

  test("enumerateOrders yields connected orders only and respects cap") {
    val q = JobQueries.byName("2a")
    val orders = QueryIR.enumerateOrders(q, cap = 10)
    assert(orders.nonEmpty && orders.size <= 10)
    orders.foreach { order =>
      var bound = Set(order.head)
      order.tail.foreach { b =>
        assert(q.joins.exists(j =>
          (bound(j.a) && j.b == b) || (bound(j.b) && j.a == b)))
        bound += b
      }
    }
  }

  test("leftDeep builds the expected tree") {
    assert(QueryIR.leftDeep(Seq("a", "b", "c")) == Jn(Jn(Lf("a"), Lf("b")), Lf("c")))
  }

  test("the PK point key is a top-level long equality on the key, alone or among conjuncts") {
    import Pred._
    def key(p: Pred) = TableRef("c", "comment", Some(p)).pointKey("id")
    assert(key(eqL("id", 7)) == Some(7L))
    assert(key(and(gtS("content", ""), eqL("id", 7))) == Some(7L))
    assert(key(eqL("creatorid", 7)) == None)
    assert(key(or(eqL("id", 7), eqL("id", 8))) == None)
    assert(key(Cmp("id", OpEq, LD(7.0))) == None)
    assert(TableRef("c", "comment").pointKey("id") == None)
  }
}
