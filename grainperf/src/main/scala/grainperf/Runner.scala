package grainperf

import java.lang.management.ManagementFactory
import repro.columnar.Inter
import repro.core.Query
import scala.collection.mutable
import scala.util.control.NonFatal

/** One engine's pass over the query list: its wall time, the time inside
  * the engine's `run` calls (traced passes only, else NaN), the bytes the
  * pass allocated, the executor's counters summed over the queries, and the
  * calibration kernel's time right after the pass.
  */
final case class PassSample(engine: String, round: Int, traced: Boolean, ms: Double,
                            queryMs: Double, allocBytes: Long, counters: Map[String, Long],
                            kernelMs: Double) {
  /** Factor that scales this pass's times to the kernel's nominal speed. */
  def speed: Double = Calibration.NominalMs / kernelMs
}

/** Runs passes of the query list, engine by engine, and checks every result
  * against the reference engine's digest outside the timed window.
  *
  * The first engine is the reference (the Duck config); its first pass
  * fixes the expected digest of each query.
  */
final class Runner(val engines: Seq[Engine], val queries: IndexedSeq[Query], tracer: Tracer) {
  var attempted = 0L
  var failed = 0L
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer()
  val samples: mutable.ArrayBuffer[PassSample] = mutable.ArrayBuffer()
  val checkMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer()
  val gcMsPerRound: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer()
  private var expected: IndexedSeq[Option[Digest]] = _

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def allocated(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)
  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.toArray.map(
      _.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getCollectionTime).sum

  /** One round: every engine runs one pass, the starting engine rotating by
    * round so that drift within a round hits every engine alike.
    */
  def round(r: Int, record: Boolean): Unit = {
    val g0 = gcMs()
    val n = engines.size
    (0 until n).foreach { k =>
      val s = pass(engines((r + k) % n), r)
      if (record) samples += s
    }
    if (record) gcMsPerRound += (gcMs() - g0).toDouble
  }

  def pass(e: Engine, r: Int): PassSample = {
    tracer.pass = r
    val traced = tracer.enabled
    val nq = queries.size
    val results = new Array[Either[Throwable, Inter]](nq)
    val counters = new Array[Seq[(String, Long)]](nq)
    val firstSpan = tracer.count
    val a0 = allocated()
    val t0 = System.nanoTime()
    tracer.span(s"pass:${e.name}") {
      var i = 0
      while (i < nq) {
        val q = queries(i)
        results(i) =
          try {
            val (res, cs) = tracer.span(s"run:${e.name}:${q.name}")(e.exec(q))
            counters(i) = cs
            Right(res)
          } catch { case NonFatal(t) => Left(t) }
        i += 1
      }
    }
    val ms = (System.nanoTime() - t0) / 1e6
    val alloc = allocated() - a0
    val kernel = Calibration.kernelMs()
    val queryMs =
      if (!traced) Double.NaN
      else tracer.since(firstSpan)
        .filter(s => s.pass == r && s.name.startsWith(s"run:${e.name}:"))
        .map(_.durNs).sum / 1e6
    val c0 = System.nanoTime()
    tracer.span("check")(check(e, results))
    checkMs += (System.nanoTime() - c0) / 1e6
    tracer.pass = -1
    val sums = mutable.LinkedHashMap[String, Long]()
    counters.foreach(cs => if (cs != null) cs.foreach { case (k, v) => sums(k) = sums.getOrElse(k, 0L) + v })
    PassSample(e.name, r, traced, ms, queryMs, alloc, sums.toMap, kernel)
  }

  private def check(e: Engine, results: Array[Either[Throwable, Inter]]): Unit = {
    val digests = results.map(_.flatMap(res =>
      try Right(Digest.of(res)) catch { case NonFatal(t) => Left(t) }))
    if (expected == null) {
      require(e eq engines.head, "the reference engine must run first")
      expected = digests.map(_.toOption).toIndexedSeq
    }
    digests.indices.foreach { i =>
      attempted += 1
      val problem = (digests(i), expected(i)) match {
        case (Right(d), Some(x)) if d == x => None
        case (Right(d), Some(x))           => Some(s"digest $d, reference $x")
        case (Right(_), None)              => Some("reference engine failed")
        case (Left(t), _)                  => Some(s"threw ${t.getClass.getSimpleName}: ${t.getMessage}")
      }
      problem.foreach { p =>
        failed += 1
        if (failures.size < 10) failures += s"${e.name}/${queries(i).name}: $p"
      }
    }
  }

  def passes(engine: String): Seq[PassSample] = samples.filter(_.engine == engine).toSeq
}
