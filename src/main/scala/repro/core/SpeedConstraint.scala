package repro.core

/** Speed constraint s = (0, smax) with window size w (Definition 2.3).
  *
  * A series satisfies the constraint if for any pair with
  * `0 < tj - ti <= w` the Euclidean speed `d(xi, xj)/(tj - ti)` is at
  * most `s`. Pairs farther apart than `w` are unconstrained (the paper
  * assumes smin = 0, so only the upper bound matters).
  */
final case class SpeedConstraint(s: Double, w: Double) {
  require(s > 0, s"speed constraint must be positive, got $s")
  require(w > 0, s"window must be positive, got $w")

  /** Pure speed test d(a, b) <= s * dt, with no window cut-off — the
    * check MTCSC-G's DP and the online algorithms' scans apply (Example 3.3
    * accepts a successor at gap 3 > w = 2 because d <= s * 3).
    */
  def speedOk(a: TimePoint, b: TimePoint): Boolean = {
    val dt = math.abs(b.t - a.t)
    if (dt == 0) a.sameValues(b)
    else a.dist(b) <= s * dt + SpeedConstraint.Eps
  }
}

object SpeedConstraint {
  /** Tolerance for boundary pairs: repairs placed exactly on the speed
    * border (interpolation does this by construction) must validate.
    */
  val Eps: Double = 1e-9

  /** Capture `s` from data as the p-th percentile of consecutive-pair
    * Euclidean speeds — the paper's "95% confidence level" heuristic [23]
    * — widened by a `slack` factor.
    */
  def capture(xs: Array[TimePoint], w: Double, percentile: Double = 0.95,
              slack: Double = 1.0): SpeedConstraint = {
    val speeds = consecutiveSpeeds(xs)
    require(speeds.nonEmpty, "need at least two points to capture a speed constraint")
    SpeedConstraint(floorSpeed(quantile(speeds, percentile) * slack), w)
  }

  /** A captured `s`, raised to at least 1e-9: speeds captured over a
    * stretch where nothing moves (a stuck sensor) are all 0, and a
    * constraint needs a positive `s`.
    */
  def floorSpeed(s: Double): Double = math.max(s, 1e-9)

  /** Euclidean speeds between consecutive observations. */
  def consecutiveSpeeds(xs: Array[TimePoint]): Array[Double] = {
    val out = Array.newBuilder[Double]
    var i = 1
    while (i < xs.length) {
      val dt = xs(i).t - xs(i - 1).t
      if (dt > 0) out += xs(i).dist(xs(i - 1)) / dt
      i += 1
    }
    out.result()
  }

  /** Nearest-rank quantile over a non-empty sample; sorts a copy. */
  def quantile(sample: Array[Double], q: Double): Double = {
    require(sample.nonEmpty)
    val sorted = sample.clone()
    java.util.Arrays.sort(sorted)
    sorted(math.min(sorted.length - 1, math.max(0, math.ceil(q * sorted.length).toInt - 1)))
  }
}
