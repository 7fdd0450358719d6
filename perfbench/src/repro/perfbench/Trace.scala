package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory spans around the benchmark's calls into each layer of the
  * program (data, core, spark, eval) and around its own work (bench).
  *
  * Disabled by default, when a span costs one branch. Spans record their
  * parent, so a layer's self time is its spans' durations minus the time
  * their children cover. All spans of one timed rep share `rep`.
  */
object Trace {
  final case class Span(id: Int, parent: Int, rep: Int, layer: String, name: String,
                        startNs: Long, endNs: Long)

  val Layers: Seq[String] = Seq("bench", "data", "core", "spark", "eval")

  var enabled = false
  private var rep = 0
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 1

  /** Start a new rep id; spans opened until the next call share it. */
  def newRep(): Unit = rep += 1

  def span[A](layer: String, name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(0)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, rep, layer, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  def count: Int = spans.length

  /** Seconds per layer not covered by a child span. */
  def selfSeconds: Map[String, Double] = {
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent != 0) childNs(s.parent) += s.endNs - s.startNs)
    val self = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    spans.foreach(s => self(s.layer) += (s.endNs - s.startNs - childNs(s.id)) / 1e9)
    Layers.map(l => l -> self(l)).toMap
  }

  /** One JSON object per span, one per line. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"parent":${s.parent},"rep":${s.rep},"layer":"${s.layer}",""" +
        s""""name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally out.close()
  }
}
