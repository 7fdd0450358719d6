package repro.core

/** MTCSC-C — online cleaning via window clustering (Algorithms 3 + 4).
  *
  * For each key point k the succeeding points inside the window are
  * grouped into speed-compatibility clusters anchored on the previous
  * repaired point (BuildCluster). The first point of the largest cluster
  * is the trend representative; if the key point is incompatible with
  * either the previous repair or that representative it is repaired onto
  * the interpolation line (formula (6)). Unlike MTCSC-L this also fixes
  * *small errors* that satisfy the constraint but sit off the trend.
  */
final case class MtcscC(sc: SpeedConstraint) extends Chunked.Online {
  override def name: String = "MTCSC-C"

  private[core] override def repair(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int]): Unit =
    Chunked.repair(xs, out, bounds, sc, (_, _) => new MtcscC.Run(sc))
}

object MtcscC {

  /** Cluster flags (Algorithm 3 uses 0 / -1 / >0; 0-based indices force a
    * distinct encoding): OMIT = dirty/default, HEAD = first point of a
    * cluster, values >= 0 = head index of the cluster joined.
    */
  private final val OMIT = -2
  private final val HEAD = -1

  /** A run of Algorithm 4 under `sc` over one series, shared by C, A and
    * Uni. Its state is a cache: a fresh run makes the same decisions, only
    * with more work. BuildCluster's arrays, indexed relative to the window
    * start, hold the cluster flags and, for each head, the size of its
    * cluster; they grow to the longest window seen. The sliding window is
    * `end`, one past the last raw point of the previous step's window, and
    * the indices i of the raw pairs (xs(i-1), xs(i)) that fail the speed
    * test, from step k's own pair k up to `end`; each pair is tested once,
    * when `end` passes it. With `raw`, the last step that left its point
    * as it was, those verdicts decide most steps without BuildCluster (DESIGN
    * §4c item 2). All of it belongs to the run's series and constraint,
    * never to their identity: MTCSC-Uni refills one buffer for every
    * dimension. A recapture forgets all of it.
    */
  private[core] class Run(private var sc: SpeedConstraint) extends Chunked.Run(sc.s) {
    private var flags = new Array[Int](16)
    private var sizes = new Array[Int](16)
    private var end = 0
    // The raw pairs (xs(i-1), xs(i)) with tested <= i < end were tested
    // under `sc`.
    private var tested = 0
    // The broken raw pairs k <= i < end at step k, oldest first:
    // broken(first), … (indices mod its length, a power of 2), `count` of them.
    private var broken = new Array[Int](16)
    private var first = 0
    private var count = 0
    // The last step that left its point as it was, so out(raw) holds
    // xs(raw)'s values, or -1.
    private var raw = -1

    /** Swaps the constraint for bound `s` and forgets the window. */
    protected final def recapture(s: Double): Unit = { this.s = s; sc = SpeedConstraint(s, sc.w); end = 0; count = 0; raw = -1 }

    /** The j-th oldest broken pair held, j < `count`. */
    private def brokenAt(j: Int): Int = broken((first + j) & (broken.length - 1))

    private def pushBroken(i: Int): Unit = {
      if (count == broken.length) {
        val grown = new Array[Int](2 * count)
        var j = 0
        while (j < count) { grown(j) = brokenAt(j); j += 1 }
        broken = grown
        first = 0
      }
      broken((first + count) & (broken.length - 1)) = i
      count += 1
    }

    /** BuildCluster (Algorithm 3) over the succeeding points `xs[from, end)`
      * of a window, anchored on `p`, the last repaired point before it.
      * Returns the index into `xs` of the head of the largest cluster — the
      * first such cluster in creation order on ties — or -1 if no point of
      * the window is compatible with `p`. Only cluster sizes are kept, no
      * member lists. It stops once the points left could not grow another
      * cluster past the first one, which then wins.
      */
    final def largestClusterHead(p: TimePoint, xs: Array[TimePoint], from: Int, end: Int): Int = {
      val n = end - from
      if (flags.length < n) {
        val cap = math.max(n, 2 * flags.length)
        flags = new Array[Int](cap)
        sizes = new Array[Int](cap)
      }
      val f = flags
      val size = sizes
      // Lines 3-6: first point compatible with p starts the first cluster.
      var head = 0
      while (head < n && !sc.speedOk(p, xs(from + head))) head += 1
      if (head == n) return -1
      f(head) = HEAD
      size(head) = 1
      var other = 0 // the size of the largest cluster but the first so far
      var i = head + 1
      while (i < n) {
        // The n - i points left can grow no cluster past the first.
        if (size(head) >= other + n - i) return from + head
        f(i) = OMIT
        val xi = xs(from + i)
        var j = i - 1
        var done = false
        while (!done) {
          if (sc.speedOk(xi, xs(from + j))) {
            // Action 1 — join j's cluster; a hit on an omitted j leaves i
            // omitted too (similar properties to a dirty point).
            val c = if (f(j) == HEAD) j else f(j)
            if (c >= 0) {
              f(i) = c
              size(c) += 1
              if (c != head && size(c) > other) other = size(c)
            }
            done = true
          } else if (j == head || f(j) >= 0) {
            // Action 2 — try to open a new cluster, anchored on p.
            if (sc.speedOk(p, xi)) { f(i) = HEAD; size(i) = 1; if (other == 0) other = 1 }
            done = true
          } else {
            j -= 1 // Action 3 — j is a cluster head or omitted: look further back
          }
        }
        i += 1
      }
      // Heads are created in window order, so the first strictly larger
      // size wins ties for the earliest cluster.
      var best = head
      var h = head + 1
      while (h < n) {
        if (f(h) == HEAD && size(h) > size(best)) best = h
        h += 1
      }
      from + best
    }

    /** One Algorithm 4 iteration for key point k. The window is known once
      * a raw point with t > t_k + w has arrived; until then, unless
      * `closed`, a point may still join it, so `out(k)` is left as is and
      * the result is false.
      *
      * When the window's first point is compatible with `out(k-1)`, the
      * points up to the first broken raw pair fb after it join its cluster
      * through their predecessors (Action 1). If they are at least half of
      * the window, no other cluster can be larger, so the head is k+1 and
      * the clusters are not built.
      */
    def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, n: Int, closed: Boolean): Boolean = {
      val last = xs(k).t + sc.w
      var end = this.end
      if (end <= k) { end = k + 1; tested = end }
      val testedK = tested <= k
      while (count > 0 && broken(first) < k) { first = (first + 1) & (broken.length - 1); count -= 1 }
      while (end < n && xs(end).t <= last) {
        if (!sc.speedOk(xs(end), xs(end - 1))) pushBroken(end)
        end += 1
      }
      this.end = end
      if (end == n && !closed) return false
      // Pairs k and k + 1 are broken, and fb is the first broken pair
      // after them, or end.
      var j = 0
      val brokenK = count > 0 && brokenAt(0) == k
      if (brokenK) j += 1
      val brokenNext = j < count && brokenAt(j) == k + 1
      if (brokenNext) j += 1
      val fb = if (j < count) brokenAt(j) else end
      val p = out(k - 1)
      val rep =
        if (end > k + 1 && 2 * (fb - k - 1) >= end - k - 1 && sc.speedOk(p, xs(k + 1))) k + 1
        else largestClusterHead(p, xs, k + 1, end)
      // speedOk is symmetric bit for bit, so the verdict a raw pair got
      // when `end` passed it also holds with its points swapped.
      val keyOk = if (raw == k - 1 && testedK) !brokenK else sc.speedOk(p, xs(k))
      raw = -1
      if (rep >= 0) {
        if (!(keyOk && (if (rep == k + 1) !brokenNext else sc.speedOk(xs(k), xs(rep)))))
          TimePoint.interpolate(out(k), p, xs(rep))
        else raw = k
      } else if (keyOk) raw = k
      else {
        // Empty cluster set — the paper's Algorithm 4 leaves this case
        // unspecified (line 9's argmax needs a cluster). Copying the
        // previous repair creates an absorbing flatline once the series
        // outruns it; instead take the minimum-change feasible repair:
        // project the observation onto the previous repair's speed ball
        // (sound by construction, and it keeps tracking the data).
        val dt = xs(k).t - p.t
        val d = xs(k).dist(p)
        val scale = if (d > 0) sc.s * dt / d else 0.0
        var l = 0
        while (l < out(k).v.length) {
          out(k).v(l) = p.v(l) + scale * (xs(k).v(l) - p.v(l))
          l += 1
        }
      }
      true
    }
  }
}
