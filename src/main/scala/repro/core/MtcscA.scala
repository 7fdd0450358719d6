package repro.core

/** MTCSC-A — MTCSC-C with an adaptively re-captured speed constraint
  * (Algorithm 5).
  *
  * Consecutive-pair speeds of the raw observations are pushed through two
  * adjacent sliding windows W1, W2 of `m` speeds each. Both are bucketed
  * into `b` equal intervals over [0, s] (the last bucket is the overflow
  * (s, inf)); when the KL divergence KL(W1 || W2) exceeds `tau` the data
  * characteristic changed and the constraint is re-captured as the 95th
  * percentile of W2 divided by `beta` (at least 1e-9, as in
  * [[SpeedConstraint.capture]]).
  */
final case class MtcscA(
    initial: SpeedConstraint,
    b: Int = 6,
    tau: Double = 0.75,
    m: Int = 150,
    beta: Double = 0.75,
) extends Cleaner {
  override def name: String = "MTCSC-A"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = TimePoint.checkedCopyOf(xs)
    val state = new MtcscA.AdaptiveState(b, tau, m, beta)
    val scratch = new MtcscC.Scratch
    var sc = initial
    var k = 1
    while (k < xs.length) {
      val s = state.update(xs(k - 1), xs(k), sc.s)
      if (s != sc.s) sc = SpeedConstraint(s, initial.w)
      MtcscC.step(out, xs, k, sc, scratch)
      k += 1
    }
    out
  }
}

object MtcscA {

  /** Mutable Algorithm 5 state: two adjacent speed windows. Raw speeds
    * are stored (not bucket ids) so UpdateDistribution under a changed
    * constraint is a pure re-bucketing of the same values.
    *
    * The newest 2m speeds sit in one ring buffer, oldest first: W1 is
    * its older half and W2 its newer half. Once both are full, the bucket
    * counts of each are kept up to date as one speed enters W2, one moves
    * from W2 to W1 and one leaves W1; they are recounted only when `s`
    * differs from the `s` they were counted under. W2 is also kept
    * sorted, so a recapture reads its percentile without sorting.
    */
  final class AdaptiveState(b: Int, tau: Double, m: Int, beta: Double) {
    private val ring = new Array[Double](2 * m)
    private var oldest = 0 // ring index of W1's first speed once both are full
    private var filled = 0
    private val sortedW2 = new Array[Double](m)
    private val c1 = new Array[Int](b)
    private val c2 = new Array[Int](b)
    private val p1 = new Array[Double](b)
    private val p2 = new Array[Double](b)
    private var countedS = Double.NaN
    private var width = Double.NaN
    // Whether KL(W1 || W2) > tau; stale once the counts change.
    private var divergent = false
    private var stale = true

    private def at(i: Int): Double = {
      val j = oldest + i
      ring(if (j >= ring.length) j - ring.length else j)
    }
    private def bucketOf(v: Double): Int = bucket(v, b, countedS, width)

    private def recount(s: Double): Unit = {
      countedS = s
      width = s / (b - 1)
      java.util.Arrays.fill(c1, 0)
      java.util.Arrays.fill(c2, 0)
      var i = 0
      while (i < m) {
        c1(bucketOf(at(i))) += 1
        c2(bucketOf(at(m + i))) += 1
        i += 1
      }
    }

    /** Insert `v` into `sortedW2[0, n)`, which has room at n. */
    private def insertSorted(v: Double, n: Int): Unit = {
      var j = java.util.Arrays.binarySearch(sortedW2, 0, n, v)
      if (j < 0) j = -j - 1
      System.arraycopy(sortedW2, j, sortedW2, j + 1, n - j)
      sortedW2(j) = v
    }

    /** Replace one copy of `old` in the full `sortedW2` by `v`. */
    private def replaceSorted(old: Double, v: Double): Unit = {
      val i = java.util.Arrays.binarySearch(sortedW2, 0, m, old)
      var j = java.util.Arrays.binarySearch(sortedW2, 0, m, v)
      if (j < 0) j = -j - 1
      if (j > i) { System.arraycopy(sortedW2, i + 1, sortedW2, i, j - 1 - i); sortedW2(j - 1) = v }
      else { System.arraycopy(sortedW2, j, sortedW2, j + 1, i - j); sortedW2(j) = v }
    }

    /** Feed the speed of (p -> k); returns the (possibly updated) s. */
    def update(p: TimePoint, k: TimePoint, s: Double): Double = {
      val dt = k.t - p.t
      if (dt <= 0) return s
      val s1 = k.dist(p) / dt
      if (filled < ring.length) {
        if (filled >= m) insertSorted(s1, filled - m)
        ring(filled) = s1
        filled += 1
        return s
      }
      if (s != countedS) { recount(s); stale = true }
      if (stale) {
        // The distributions of the full windows: counts over m.
        var i = 0
        while (i < b) { p1(i) = c1(i) / m.toDouble; p2(i) = c2(i) / m.toDouble; i += 1 }
        divergent = kl(p1, p2) > tau
        stale = false
      }
      val out =
        if (divergent) SpeedConstraint.floorSpeed(sortedW2(SpeedConstraint.nearestRank(m, 0.95)) / beta)
        else s
      // Slide: W1 drops its oldest speed and takes W2's oldest; W2 takes s1.
      val moving = at(m)
      val left = bucketOf(at(0))
      val moved = bucketOf(moving)
      val entered = bucketOf(s1)
      if (left != moved || moved != entered) {
        c1(left) -= 1
        c1(moved) += 1
        c2(moved) -= 1
        c2(entered) += 1
        stale = true
      }
      replaceSorted(moving, s1)
      ring(oldest) = s1
      oldest = if (oldest + 1 == ring.length) 0 else oldest + 1
      out
    }
  }

  /** Bucket of speed `v`: b-1 equal intervals of `width = s / (b - 1)` over
    * [0, s] plus the overflow (s, inf). The one bucketing rule.
    */
  def bucket(v: Double, b: Int, s: Double, width: Double): Int =
    if (v > s) b - 1 else math.min(b - 2, math.max(0, math.ceil(v / width).toInt - 1))

  /** KL divergence with natural log; 0-probability p terms contribute 0,
    * 0-probability q terms are clamped to avoid infinities.
    */
  def kl(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length)
    var acc = 0.0
    var i = 0
    while (i < p.length) {
      if (p(i) > 0) acc += p(i) * math.log(p(i) / math.max(q(i), 1e-10))
      i += 1
    }
    acc
  }
}
