package repro.baselines

import repro.core.{SpeedConstraint, TimePoint}

/** Helpers shared by the univariate baselines, which the paper applies to
  * multivariate data by cleaning every dimension separately.
  */
object PerDim {

  /** Clean each dimension with `clean1(ts, values, dim)` into `out`, a copy of `xs`. */
  def apply(xs: Array[TimePoint], out: Array[TimePoint])(
      clean1: (Array[Double], Array[Double], Int) => Array[Double]): Unit = {
    if (xs.isEmpty) return
    val ts = xs.map(_.t)
    var l = 0
    while (l < xs(0).dim) {
      val repaired = clean1(ts, xs.map(_.v(l)), l)
      var i = 0
      while (i < xs.length) { out(i).v(l) = repaired(i); i += 1 }
      l += 1
    }
  }

  /** Per-dimension speed constraints captured at the 95th percentile of
    * absolute consecutive univariate speeds, widened by `slack` — how the
    * paper's univariate competitors obtain their constraints from data.
    */
  def captureSpeeds(xs: Array[TimePoint], w: Double, percentile: Double = 0.95,
                    slack: Double = 1.0): Array[SpeedConstraint] = {
    val d = xs(0).dim
    // Which pairs have dt > 0 (the `consecutiveSpeeds` rule) depends on
    // the timestamps only, so one buffer of that size serves every
    // dimension, refilled with its speeds: `TimePoint.dist` / dt at D = 1.
    val speeds = new Array[Double]((1 until xs.length).count(i => xs(i).t - xs(i - 1).t > 0))
    Array.tabulate(d) { l =>
      var j = 0
      var i = 1
      while (i < xs.length) {
        val dt = xs(i).t - xs(i - 1).t
        if (dt > 0) {
          val dv = xs(i).v(l) - xs(i - 1).v(l)
          speeds(j) = math.sqrt(dv * dv) / dt
          j += 1
        }
        i += 1
      }
      SpeedConstraint.fromSpeeds(speeds, w, percentile, slack)
    }
  }

  /** Per-dimension acceleration caps for [[SpeedAcc]]: the `percentile`
    * of |Δspeed / dt| over consecutive univariate speeds, widened by
    * `slack`. A step k has one when both its pairs, (k-1, k) and
    * (k-2, k-1), have dt > 0; its acceleration is the change from the
    * earlier pair's speed to the later's, over the later pair's dt, the
    * bound SpeedAcc applies. A series with no such step gets no cap.
    */
  def captureAccelerations(xs: Array[TimePoint], percentile: Double, slack: Double): Array[Double] = {
    def dt(k: Int) = xs(k).t - xs(k - 1).t
    def speed(k: Int, l: Int) = (xs(k).v(l) - xs(k - 1).v(l)) / dt(k)
    val steps = new Array[Int](math.max(0, xs.length - 2))
    var m = 0
    var k = 2
    while (k < xs.length) {
      if (dt(k) > 0 && dt(k - 1) > 0) { steps(m) = k; m += 1 }
      k += 1
    }
    // One buffer serves every dimension, as in `captureSpeeds`.
    val accs = new Array[Double](m)
    Array.tabulate(if (xs.isEmpty) 0 else xs(0).dim) { l =>
      var j = 0
      while (j < m) {
        val k = steps(j)
        accs(j) = math.abs(speed(k, l) - speed(k - 1, l)) / dt(k)
        j += 1
      }
      if (m == 0) Double.PositiveInfinity else SpeedConstraint.quantile(accs, percentile) * slack
    }
  }

  /** Median of a non-empty sample; sorts a copy. */
  def median(a: Array[Double]): Double = {
    val s = a.clone()
    java.util.Arrays.sort(s)
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }
}
