package repro.baselines

import repro.core.{Cleaner, SpeedConstraint, TimePoint}

/** SpeedAcc [32] — univariate online cleaning under speed *and*
  * acceleration constraints, minimum change principle.
  *
  * Extends the SCREEN interval with acceleration bounds derived from the
  * two previous repairs: with v_prev the last repaired speed, the next
  * value must lie within x'_{k-1} + (v_prev ± a·dt)·dt. The caller sets
  * one symmetric acceleration cap per dimension; the method registry
  * (`Harness.methods`) uses 2·s of that dimension's speed constraint.
  */
final case class SpeedAcc(scs: Array[SpeedConstraint], accs: Array[Double]) extends Cleaner {
  override def name: String = "SpeedAcc"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] =
    PerDim(xs) { (ts, vs, l) => SpeedAcc.clean1(ts, vs, scs(l).s, accs(l), scs(l).w) }
}

object SpeedAcc {
  /** One-dimensional speed+acceleration pass. */
  def clean1(ts: Array[Double], vs: Array[Double], s: Double, a: Double, w: Double): Array[Double] = {
    val n = ts.length
    val out = vs.clone()
    var k = 1
    while (k < n) {
      val dt = ts(k) - ts(k - 1)
      var lo = out(k - 1) - s * dt
      var hi = out(k - 1) + s * dt
      if (k >= 2) {
        val dtPrev = ts(k - 1) - ts(k - 2)
        if (dtPrev > 0) {
          val vPrev = (out(k - 1) - out(k - 2)) / dtPrev
          lo = math.max(lo, out(k - 1) + (vPrev - a * dt) * dt)
          hi = math.min(hi, out(k - 1) + (vPrev + a * dt) * dt)
        }
      }
      // Median-aggregated successor bounds (as in SCREEN).
      val lbs = Array.newBuilder[Double]
      val ubs = Array.newBuilder[Double]
      var i = k + 1
      while (i < n && ts(i) <= ts(k) + w) {
        val gap = ts(i) - ts(k)
        lbs += vs(i) - s * gap
        ubs += vs(i) + s * gap
        i += 1
      }
      val la = lbs.result(); val ua = ubs.result()
      if (la.nonEmpty) {
        val l0 = math.max(lo, PerDim.median(la))
        val u0 = math.min(hi, PerDim.median(ua))
        if (l0 <= u0) { lo = l0; hi = u0 }
      }
      if (lo > hi) { val mid = (lo + hi) / 2; lo = mid; hi = mid }
      out(k) = math.min(hi, math.max(lo, vs(k)))
      k += 1
    }
    out
  }
}
