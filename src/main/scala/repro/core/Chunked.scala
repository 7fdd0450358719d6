package repro.core

import java.util.concurrent.{ForkJoinTask, RecursiveAction}

/** The batch driver of the online methods, MTCSC-L, C, A and Uni: their
  * one `step`, run over up to `availableProcessors` chunks of one series at
  * once on the common ForkJoin pool, then spliced into exactly the
  * sequential output (DESIGN §4c).
  *
  * A step decides out(k) from the previous repair out(k-1), the raw points
  * and, for MTCSC-A, its speed windows and bound `s`; the windows hold raw
  * speeds only. So chunk [lo, hi) can run from a guessed state: out(lo-1) =
  * the raw xs(lo-1) and `s` = the initial bound, with A's windows filled
  * from the raw speeds before lo. Once the chunks before it are exact, its
  * splice compares the true state with the guess and, where they differ,
  * re-runs the steps from lo on the true state until out(k) and `s` equal
  * the speculative values bit for bit, from where on the two runs are one
  * run, or until the chunk ends.
  *
  * How many chunks a series gets depends on the steps its method takes over
  * it alone ([[Online.steps]]): a run of fewer than two [[MinChunk]]s of
  * steps never forks.
  */
object Chunked {

  /** One sequential run of an online method: its state and its one step.
    * `step` repairs out(k), a copy of xs(k), in place from out(k-1) and the
    * raw points `xs[k+1, n)`; unless `closed`, one that needs a point after
    * `n` leaves out(k) as is and returns false. `s` is the speed bound the
    * run's next step starts from, which only MTCSC-A's recaptures move.
    */
  private[repro] abstract class Run(var s: Double) {
    def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, n: Int, closed: Boolean): Boolean
  }

  /** A method whose batch `repair` is this driver. */
  trait Online extends Cleaner {
    /** Repairs `out`, a checked copy of `xs`, in the chunks between
      * consecutive `bounds`: 1 = bounds(0) < … < bounds(last) = n.
      */
    private[core] def repair(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int]): Unit

    /** The steps a batch run over `xs` takes, which set its chunk count. */
    private[core] def steps(xs: Array[TimePoint]): Long = math.max(0, xs.length - 1)

    override protected final def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit =
      repair(xs, out, bounds(1, xs.length, steps(xs)))
  }

  /** The fewest steps in a chunk. In chunks of this length and longer
    * every method ran faster than in one chunk; in shorter ones MTCSC-A's
    * splices, which run until its next recapture, could cost more than
    * its speculation saved (DESIGN §4c).
    */
  private final val MinChunk = 16384

  /** The number of chunks `work` steps (or points) are split into. */
  def count(work: Long): Int = math.max(1, math.min(Runtime.getRuntime.availableProcessors, work / MinChunk).toInt)

  /** Bounds that split [from, n) into [[count]]`(work)` near-equal chunks,
    * at most one per index, or into none when it is empty.
    */
  private[core] def bounds(from: Int, n: Int, work: Long): Array[Int] =
    if (n <= from) Array(from)
    else {
      val c = math.min(count(work), n - from)
      Array.tabulate(c + 1)(i => from + ((n - from).toLong * i / c).toInt)
    }

  /** Runs `body(0)`, …, `body(count - 1)`: inline when `count` is 1, else as
    * ForkJoin tasks of the pool the caller runs in (the common pool outside
    * one), one of them on the calling thread, which returns once all have.
    */
  private[core] def forkJoin(count: Int)(body: Int => Unit): Unit =
    if (count == 1) body(0)
    else ForkJoinTask.invokeAll(Array.tabulate[ForkJoinTask[_]](count)(i =>
      new RecursiveAction { def compute(): Unit = body(i) }): _*)

  /** Runs the method `start` makes (at a step index, from a bound `s`) over
    * `xs` into `out` in the chunks between `bounds`, from constraint `sc`:
    * speculates every chunk at once, then splices them in order.
    */
  private[core] def repair(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int], sc: SpeedConstraint,
                           start: (Int, Double) => Run): Unit = {
    val chunks = Array.tabulate(bounds.length - 1)(i => new Chunk(xs, out, bounds(i), bounds(i + 1), sc, start))
    forkJoin(chunks.length)(chunks(_).speculate())
    for (i <- 1 until chunks.length) chunks(i).splice(chunks(i - 1))
  }

  /** The steps [lo, hi) of one run over `all` that writes `target`. */
  private final class Chunk(all: Array[TimePoint], target: Array[TimePoint], lo: Int, hi: Int,
                            sc: SpeedConstraint, start: (Int, Double) => Run) {
    private val s0 = sc.s
    /** The raw points [lo-1, end), where `end` is the first point after
      * t(hi-1) + w: every window of the chunk's steps.
      */
    private var xs: Array[TimePoint] = _
    /** The output points [lo-1, hi). out(0), the state the first step reads,
      * is the guess, a raw point, until the splice sets the true one.
      */
    private var out: Array[TimePoint] = _
    /** The bound after the chunk's last step. */
    private var s = s0
    // The steps at which the speculative run moved `s`, and where to.
    private var movedAt = new Array[Int](4)
    private var movedTo = new Array[Double](4)
    private var moves = 0

    /** Runs the steps from the guessed state. */
    def speculate(): Unit = {
      val last = all(hi - 1).t + sc.w
      var end = hi
      while (end < all.length && all(end).t <= last) end += 1
      if (lo == 1 && end == all.length && hi == target.length) {
        xs = all
        out = target
      } else {
        xs = java.util.Arrays.copyOfRange(all, lo - 1, end)
        out = java.util.Arrays.copyOfRange(target, lo - 1, hi)
        out(0) = xs(0)
      }
      val run = start(lo, s0)
      var k = 1
      while (k < out.length) {
        run.step(out, xs, k, xs.length, closed = true)
        if (run.s != s) {
          if (moves == movedAt.length) {
            movedAt = java.util.Arrays.copyOf(movedAt, 2 * moves)
            movedTo = java.util.Arrays.copyOf(movedTo, 2 * moves)
          }
          movedAt(moves) = k
          movedTo(moves) = run.s
          moves += 1
          s = run.s
        }
        k += 1
      }
    }

    /** Makes the chunk exact, once `prev`, the chunk before it, is. */
    def splice(prev: Chunk): Unit = {
      val p = prev.out(prev.out.length - 1)
      if (prev.s != s0 || !java.util.Arrays.equals(p.v, out(0).v)) {
        out(0) = p
        val run = start(lo, prev.s)
        val guessed = new Array[Double](p.v.length)
        var guessedS = s0
        var move = 0
        var met = false
        var k = 1
        while (!met && k < out.length) {
          val o = out(k).v
          System.arraycopy(o, 0, guessed, 0, o.length)
          System.arraycopy(xs(k).v, 0, o, 0, o.length)
          run.step(out, xs, k, xs.length, closed = true)
          if (move < moves && movedAt(move) == k) { guessedS = movedTo(move); move += 1 }
          met = run.s == guessedS && java.util.Arrays.equals(o, guessed)
          k += 1
        }
        if (!met) s = run.s
      }
    }
  }
}
