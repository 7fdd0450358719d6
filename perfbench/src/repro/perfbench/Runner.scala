package repro.perfbench

import java.lang.management.ManagementFactory
import scala.util.control.NonFatal

/** One timed operation of a workload. `run` does one rep; `check` judges
  * its output outside the timed interval. The first output is kept for
  * quality metrics, and the allocation of the last rep on the calling
  * thread is kept for the per-layer report.
  */
final class Op[A](val name: String, val points: Long, run: () => A, check: A => Verdict) {
  val untraced = new Samples
  val traced = new Samples
  var first: Option[A] = None
  var allocBytes: Long = -1
  var broken = false

  def reps: Int = untraced.size + traced.size

  /** Time one rep into the untraced or traced samples, then check it. */
  def rep(checks: Checks): Unit = {
    Trace.newRep()
    try {
      val a0 = Alloc.thread()
      val t0 = System.nanoTime()
      val out = Trace.span("bench", s"rep.$name")(run())
      val ns = System.nanoTime() - t0
      allocBytes = Alloc.thread() - a0
      (if (Trace.enabled) traced else untraced).add(ns)
      if (first.isEmpty) first = Some(out)
      val v = Trace.span("bench", s"check.$name")(check(out))
      checks.rep(name, points, v.bad, v.detail)
    } catch {
      case NonFatal(e) =>
        broken = true
        checks.threw(name, points, e)
    }
  }

  /** Median seconds per rep over the untraced samples. */
  def medianS: Double = untraced.medianNs / 1e9
  def pointsPerS: Double = points / medianS
}

object Alloc {
  private val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def thread(): Long = bean.getCurrentThreadAllocatedBytes
}

object Runner {

  /** Time `ops` round-robin, so that drift in the machine's speed touches
    * every op alike, until each op has `minReps` samples and the next round
    * would overrun `budgetS`. An op faster than `roundS` repeats within its
    * round, and each op's turn starts from a collected heap, so no op pays
    * for another's garbage. With `alternate`, rounds switch tracing off and on so that one
    * run yields the tracing overhead; tracing is left on afterwards. An op
    * that throws is dropped from the loop.
    */
  def run(ops: Seq[Op[_]], checks: Checks, budgetS: Double, minReps: Int,
          alternate: Boolean, roundS: Double = 0.25): Unit = {
    val start = System.nanoTime()
    def elapsedS = (System.nanoTime() - start) / 1e9
    def enough = ops.forall(o => o.broken || o.untraced.size >= minReps && (!alternate || o.traced.size >= minReps))
    var round = 0
    var lastRoundS = 0.0
    while (!(enough && elapsedS + lastRoundS > budgetS) && elapsedS < 3 * budgetS && ops.exists(!_.broken)) {
      val r0 = elapsedS
      Trace.enabled = alternate && round % 2 == 1
      for (op <- ops if !op.broken) {
        System.gc()
        val t0 = System.nanoTime()
        op.rep(checks)
        while (!op.broken && System.nanoTime() - t0 < roundS * 1e9) op.rep(checks)
      }
      lastRoundS = elapsedS - r0
      round += 1
    }
    Trace.enabled = alternate
    ops.foreach(summary)
  }

  /** One line per op: sample count, median and quartiles. */
  def summary(op: Op[_]): Unit = if (op.untraced.size > 0) {
    val (q1, q3) = op.untraced.quartilesNs
    println(f"[perfbench] op ${op.name}%-10s reps=${op.untraced.size}%3d traced=${op.traced.size}%3d " +
      f"median=${op.untraced.medianNs / 1e6}%.3f ms q1=${q1 / 1e6}%.3f q3=${q3 / 1e6}%.3f points=${op.points} " +
      op.untraced.values.map(ns => f"${ns / 1e6}%.0f").mkString("[", " ", "]"))
  }

  /** Share by which the traced reps were slower than the untraced ones,
    * over the sum of the ops' medians.
    */
  def traceOverhead(ops: Seq[Op[_]]): Double = {
    val live = ops.filter(o => o.traced.size > 0 && o.untraced.size > 0)
    live.map(_.traced.medianNs).sum / live.map(_.untraced.medianNs).sum - 1
  }

  /** Run `f` `warm` times untimed, then `reps` times timed; median seconds. */
  def medianOf(warm: Int, reps: Int)(f: => Unit): Double = {
    (1 to warm).foreach(_ => f)
    Stats.median((1 to reps).map { _ =>
      val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9
    })
  }
}

/** Set-up repeated several times, since one set-up is too short to time
  * steadily: the first rep warms the JIT and is not counted, and each
  * named phase and the total report their median over the rest.
  */
final class Setup {
  private val phases = scala.collection.mutable.LinkedHashMap.empty[String, Vector[Double]]
  private val current = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private var totals = Vector.empty[Double]

  def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val a = body
    current(name) += (System.nanoTime() - t0) / 1e9
    a
  }

  /** Run `f` once to warm up and `reps` more times; returns the last inputs.
    * `teardown` releases an earlier rep's inputs before the next starts.
    */
  def repeat[A](reps: Int)(f: Setup => A)(teardown: A => Unit): A = {
    var last: Option[A] = None
    for (i <- 0 to reps) {
      last.foreach(teardown)
      current.clear()
      val t0 = System.nanoTime()
      last = Some(f(this))
      if (i > 0) {
        totals :+= (System.nanoTime() - t0) / 1e9
        current.foreach { case (k, v) => phases(k) = phases.getOrElse(k, Vector.empty) :+ v }
      }
    }
    last.get
  }

  def totalS: Double = Stats.median(totals)
  def phaseS(name: String): Double = phases.get(name).map(Stats.median(_)).getOrElse(0.0)
}
