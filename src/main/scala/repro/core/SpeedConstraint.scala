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
    * accepts a successor at gap 3 > w = 2 because d <= s * 3). It is
    * symmetric bit for bit: swapping `a` and `b` negates every difference
    * it takes, which leaves `abs`, each square and so the result unchanged.
    * MTCSC-C's run relies on that to reuse a raw pair's verdict.
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
              slack: Double = 1.0): SpeedConstraint =
    fromSpeeds(consecutiveSpeeds(xs), w, percentile, slack)

  /** The capture rule over speeds already computed, which it permutes
    * (see [[quantile]]).
    */
  def fromSpeeds(speeds: Array[Double], w: Double, percentile: Double, slack: Double): SpeedConstraint = {
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

  /** Nearest-rank quantile over a non-empty sample: the element at index
    * ceil(q·n) − 1 (clamped to [0, n)) of the sample sorted by
    * `java.lang.Double.compare`, the order of `java.util.Arrays.sort`.
    * Selects it in place in expected linear time and PERMUTES `sample`:
    * pass an array the caller owns and no longer needs in its order.
    */
  def quantile(sample: Array[Double], q: Double): Double = {
    require(sample.nonEmpty)
    val n = sample.length
    select(sample, nearestRank(n, q), 2 * (32 - Integer.numberOfLeadingZeros(n)))
  }

  /** The index [[quantile]] selects in a sorted sample of `n`:
    * ceil(q·n) − 1, clamped to [0, n).
    */
  private[core] def nearestRank(n: Int, q: Double): Int = math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1))

  /** Hoare's FIND: partitions `a` around a median-of-three pivot until the
    * r-th smallest element sits at `a(r)`, and returns it. After `rounds`
    * partitions (`quantile` allows about 2·log2(n)) it sorts the remaining
    * range instead, so an adversarial input costs O(n log n), not O(n²).
    */
  private[core] def select(a: Array[Double], r: Int, rounds: Int): Double = {
    import java.lang.Double.compare
    var lo = 0
    var hi = a.length - 1
    var left = rounds
    while (lo < hi) {
      if (left == 0) {
        java.util.Arrays.sort(a, lo, hi + 1)
        return a(r)
      }
      left -= 1
      val x = {
        val p = a(lo); val m = a((lo + hi) >>> 1); val q = a(hi)
        if (compare(p, m) < 0) { if (compare(m, q) < 0) m else if (compare(p, q) < 0) q else p }
        else if (compare(p, q) < 0) p else if (compare(m, q) < 0) q else m
      }
      // Afterwards a[lo, j] <= x <= a[i, hi], and any slot between holds x.
      var i = lo
      var j = hi
      while (i <= j) {
        while (compare(a(i), x) < 0) i += 1
        while (compare(x, a(j)) < 0) j -= 1
        if (i <= j) {
          val t = a(i); a(i) = a(j); a(j) = t
          i += 1
          j -= 1
        }
      }
      if (r <= j) hi = j
      else if (r >= i) lo = i
      else return a(r)
    }
    a(r)
  }
}
