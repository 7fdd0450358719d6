package repro.baselines

import repro.core.{Cleaner, SpeedConstraint, TimePoint}

/** SpeedAcc [32] — univariate online cleaning under speed *and*
  * acceleration constraints, minimum change principle.
  *
  * Extends the SCREEN interval with acceleration bounds derived from the
  * two previous repairs: with v_prev the last repaired speed, the next
  * value must lie within x'_{k-1} + (v_prev ± a·dt)·dt. The caller sets
  * one symmetric acceleration cap per dimension; the method registry
  * (`Harness.methods`) captures it from the reference series as it
  * captures the speeds (`PerDim.captureAccelerations`).
  */
final case class SpeedAcc(scs: Array[SpeedConstraint], accs: Array[Double]) extends Cleaner {
  override def name: String = "SpeedAcc"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit = {
    Cleaner.requirePerDimension(xs, scs.length, "constraint")
    Cleaner.requirePerDimension(xs, accs.length, "acceleration cap")
    PerDim(xs, out) { (ts, vs, l) => SpeedAcc.clean1(ts, vs, scs(l).s, accs(l), scs(l).w) }
  }
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
      // SCREEN's successor interval; the midpoint when it is empty.
      val (l, h) = Screen.successorInterval(ts, vs, k, s, w, lo, hi)
      out(k) = if (l > h) (l + h) / 2 else math.min(h, math.max(l, vs(k)))
      k += 1
    }
    out
  }
}
