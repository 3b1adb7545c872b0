package grainperf

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** One timed interval. Spans of one pass share `pass` (-1 outside passes);
  * `parent` is the enclosing span's id (-1 at the top level).
  */
final case class Span(id: Int, parent: Int, pass: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run. Spans nest on the calling
  * thread; nothing is written until [[write]].
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer[Span]()
  private var stack = List.empty[Int]
  /** Whether spans are recorded; the traced run alternates it by round. */
  var enabled: Boolean = false
  var pass: Int = -1

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.size
      val parent = stack.headOption.getOrElse(-1)
      spans += null // reserve the id; filled in when the span ends
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, pass, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  def all: Seq[Span] = spans.toSeq
  def count: Int = spans.size
  /** Spans recorded from index `from` on (ended ones only). */
  def since(from: Int): Iterator[Span] = spans.iterator.drop(from).filter(_ != null)

  /** Self time per span: its duration minus the durations of its children
    * (children run nested on the same thread, so they never overlap).
    */
  def selfNs: Map[Int, Long] = {
    val self = mutable.Map[Int, Long]()
    spans.foreach(s => self(s.id) = self.getOrElse(s.id, 0L) + s.durNs)
    spans.foreach(s => if (s.parent >= 0) self(s.parent) = self.getOrElse(s.parent, 0L) - s.durNs)
    self.toMap
  }

  /** Write all spans as JSON lines with their self time. */
  def write(path: Path): Unit = {
    val self = selfNs
    val lines = spans.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"pass":${s.pass},"name":"${s.name.replace("\\", "\\\\").replace("\"", "\\\"")}",""" +
        s""""start_ns":${s.startNs},"dur_ns":${s.durNs},"self_ns":${self(s.id)}}"""
    }
    Option(path.getParent).foreach(Files.createDirectories(_))
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}
