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
    * `broken`, the last index i < `end` whose raw pair (xs(i-1), xs(i))
    * fails the speed test; each pair is tested once, when `end` passes it.
    * Both belong to the run's series and constraint, never to their
    * identity: MTCSC-Uni refills one buffer for every dimension.
    */
  private[core] class Run(private var sc: SpeedConstraint) extends Chunked.Run(sc.s) {
    private var flags = new Array[Int](16)
    private var sizes = new Array[Int](16)
    private var end = 0
    private var broken = -1

    /** Swaps the constraint for bound `s` and forgets the window. */
    protected final def recapture(s: Double): Unit = { this.s = s; sc = SpeedConstraint(s, sc.w); end = 0; broken = -1 }

    /** BuildCluster (Algorithm 3) over the succeeding points `xs[from, end)`
      * of a window, anchored on `p`, the last repaired point before it.
      * Returns the index into `xs` of the head of the largest cluster — the
      * first such cluster in creation order on ties — or -1 if no point of
      * the window is compatible with `p`. Only cluster sizes are kept, no
      * member lists.
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
      var i = head + 1
      while (i < n) {
        f(i) = OMIT
        val xi = xs(from + i)
        var j = i - 1
        var done = false
        while (!done) {
          if (sc.speedOk(xi, xs(from + j))) {
            // Action 1 — join j's cluster; a hit on an omitted j leaves i
            // omitted too (similar properties to a dirty point).
            if (f(j) == HEAD) { f(i) = j; size(j) += 1 }
            else if (f(j) >= 0) { f(i) = f(j); size(f(j)) += 1 }
            done = true
          } else if (j == head || f(j) >= 0) {
            // Action 2 — try to open a new cluster, anchored on p.
            if (sc.speedOk(p, xi)) { f(i) = HEAD; size(i) = 1 }
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
      * When the window is non-empty, none of its raw consecutive pairs
      * breaks the constraint and its first point is compatible with
      * `out(k-1)`, BuildCluster puts every point into the first point's
      * cluster (each joins through its predecessor, Action 1), so the head
      * is k+1 and the clusters are not built.
      */
    def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, n: Int, closed: Boolean): Boolean = {
      val last = xs(k).t + sc.w
      var end = math.max(this.end, k + 1)
      var broken = this.broken
      while (end < n && xs(end).t <= last) {
        if (!sc.speedOk(xs(end), xs(end - 1))) broken = end
        end += 1
      }
      this.end = end
      this.broken = broken
      if (end == n && !closed) return false
      val rep =
        if (end > k + 1 && broken <= k + 1 && sc.speedOk(out(k - 1), xs(k + 1))) k + 1
        else largestClusterHead(out(k - 1), xs, k + 1, end)
      if (rep >= 0) {
        if (!(sc.speedOk(out(k - 1), xs(k)) && sc.speedOk(xs(k), xs(rep))))
          TimePoint.interpolate(out(k), out(k - 1), xs(rep))
      } else if (!sc.speedOk(out(k - 1), xs(k))) {
        // Empty cluster set — the paper's Algorithm 4 leaves this case
        // unspecified (line 9's argmax needs a cluster). Copying the
        // previous repair creates an absorbing flatline once the series
        // outruns it; instead take the minimum-change feasible repair:
        // project the observation onto the previous repair's speed ball
        // (sound by construction, and it keeps tracking the data).
        val p = out(k - 1)
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
