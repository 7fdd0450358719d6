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
final case class MtcscC(sc: SpeedConstraint) extends Cleaner {
  override def name: String = "MTCSC-C"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = TimePoint.checkedCopyOf(xs)
    MtcscC.run(out, xs, sc, new MtcscC.Scratch)
    out
  }
}

object MtcscC {

  /** Cluster flags (Algorithm 3 uses 0 / -1 / >0; 0-based indices force a
    * distinct encoding): OMIT = dirty/default, HEAD = first point of a
    * cluster, values >= 0 = head index of the cluster joined.
    */
  private final val OMIT = -2
  private final val HEAD = -1

  /** Reusable BuildCluster arrays, indexed relative to the window start:
    * the cluster flags, and for each head the size of its cluster. They
    * grow to the longest window seen; one instance serves a whole series
    * (and, in MTCSC-Uni, every dimension).
    */
  final class Scratch {
    private[MtcscC] var flags = new Array[Int](16)
    private[MtcscC] var sizes = new Array[Int](16)

    private[MtcscC] def ensure(n: Int): Unit = if (flags.length < n) {
      val cap = math.max(n, 2 * flags.length)
      flags = new Array[Int](cap)
      sizes = new Array[Int](cap)
    }
  }

  /** Algorithm 4 over a whole series: repairs `out` (a copy of `xs`) in place. */
  def run(out: Array[TimePoint], xs: Array[TimePoint], sc: SpeedConstraint, scratch: Scratch): Unit = {
    var k = 1
    while (k < xs.length) {
      step(out, xs, k, sc, scratch)
      k += 1
    }
  }

  /** BuildCluster (Algorithm 3) over the succeeding points `xs[from, end)`
    * of a window, anchored on `p`, the last repaired point before it.
    * Returns the index into `xs` of the head of the largest cluster — the
    * first such cluster in creation order on ties — or -1 if no point of
    * the window is compatible with `p`. Only cluster sizes are kept, no
    * member lists.
    */
  def largestClusterHead(p: TimePoint, xs: Array[TimePoint], from: Int, end: Int,
                         sc: SpeedConstraint, scratch: Scratch): Int = {
    val n = end - from
    scratch.ensure(n)
    val f = scratch.flags
    val size = scratch.sizes
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

  /** One Algorithm 4 iteration for key point k; repairs out(k) in place.
    * Factored out so MTCSC-A can reuse it with an evolving constraint.
    */
  def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, sc: SpeedConstraint,
           scratch: Scratch): Unit = {
    val n = xs.length
    var end = k + 1
    while (end < n && xs(end).t <= xs(k).t + sc.w) end += 1
    val rep = largestClusterHead(out(k - 1), xs, k + 1, end, sc, scratch)
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
  }
}
