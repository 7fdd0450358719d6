package repro.baselines

import repro.core.{Cleaner, TimePoint}

/** RCSWS [15] (GPSClean) — range constraints + sliding-window statistics,
  * designed for 2-D GPS data (our implementation is D-generic).
  *
  * A trailing window of recent points yields a per-dimension median and
  * MAD; an observation whose deviation from the window median exceeds
  * `C * MAD` (the range constraint) is repaired to the window median in
  * the violating dimensions. Oversimplified by design — the paper notes
  * RCSWS "suffers from oversimplified considerations regarding the data".
  */
final case class Rcsws() extends Cleaner {
  private final val WindowSize = 10 // the points of the trailing window
  private final val C = 4.0 // the range constraint, in MADs from the window median

  override def name: String = "RCSWS"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit = {
    val n = xs.length
    if (n == 0) return
    val d = xs(0).dim
    // Warm-up: a window with < WindowSize points has a degenerate MAD
    // (often 0), which would flatten the head of the series.
    var k = WindowSize
    while (k < n) {
      val lo = math.max(0, k - WindowSize)
      var l = 0
      while (l < d) {
        // Statistics come from the *observations* — feeding repairs back
        // in would let one repair flatten the rest of a moving series.
        val win = Array.tabulate(k - lo)(i => xs(lo + i).v(l))
        val med = PerDim.median(win)
        val mad = PerDim.median(win.map(v => math.abs(v - med)))
        val range = C * math.max(mad, 1e-6)
        if (math.abs(xs(k).v(l) - med) > range) out(k).v(l) = med
        l += 1
      }
      k += 1
    }
  }
}
