package repro.baselines

import repro.core.{Cleaner, SpeedConstraint, TimePoint}

/** SCREEN [33] — univariate online cleaning under speed constraints,
  * minimum *change* principle (border repair).
  *
  * For the current point the feasible interval is the intersection of the
  * band reachable from the previous repair with the median of the bounds
  * induced by the succeeding points in the window (medians make the
  * bounds robust to dirty successors); the repair clamps the observation
  * into that interval: x'_k = median(X_min, X_max, x_k). Applied per
  * dimension with s_min = -s, s_max = +s (the univariate projection of
  * the Euclidean constraint).
  */
final case class Screen(scs: Array[SpeedConstraint]) extends Cleaner {
  override def name: String = "SCREEN"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit = {
    Cleaner.requirePerDimension(xs, scs.length, "constraint")
    PerDim(xs, out) { (ts, vs, l) => Screen.clean1(ts, vs, scs(l).s, scs(l).w) }
  }
}

object Screen {
  /** One-dimensional SCREEN pass. */
  def clean1(ts: Array[Double], vs: Array[Double], s: Double, w: Double): Array[Double] = {
    val out = vs.clone()
    var k = 1
    while (k < ts.length) {
      val dt = ts(k) - ts(k - 1)
      val (lo, hi) = successorInterval(ts, vs, k, s, w, out(k - 1) - s * dt, out(k - 1) + s * dt)
      out(k) = math.min(hi, math.max(lo, vs(k))) // median(lo, hi, x_k)
      k += 1
    }
    out
  }

  /** [lo, hi] intersected with the medians of the bounds that point k's
    * in-window successors induce; [lo, hi] itself when no successor is in
    * the window or the intersection is empty. SCREEN's one interval rule,
    * also used by SpeedAcc.
    */
  def successorInterval(ts: Array[Double], vs: Array[Double], k: Int, s: Double, w: Double,
                        lo: Double, hi: Double): (Double, Double) = {
    val lbs = Array.newBuilder[Double]
    val ubs = Array.newBuilder[Double]
    var i = k + 1
    while (i < ts.length && ts(i) <= ts(k) + w) {
      val gap = ts(i) - ts(k)
      lbs += vs(i) - s * gap
      ubs += vs(i) + s * gap
      i += 1
    }
    if (i == k + 1) return (lo, hi)
    val l0 = math.max(lo, PerDim.median(lbs.result()))
    val u0 = math.min(hi, PerDim.median(ubs.result()))
    if (l0 <= u0) (l0, u0) else (lo, hi)
  }
}
