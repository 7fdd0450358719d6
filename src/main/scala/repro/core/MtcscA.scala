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
  * [[SpeedConstraint.capture]]). [[MtcscA.AdaptiveState]] keeps the
  * windows, the KL verdict and the percentile up to date in O(b) per
  * step, whatever m is.
  */
final case class MtcscA(
    initial: SpeedConstraint,
    b: Int = 6,
    tau: Double = 0.75,
    m: Int = 150,
    beta: Double = 0.75,
) extends Chunked.Online {
  require(b >= 2, s"MTCSC-A needs at least 2 buckets, got b = $b")
  require(m >= 1, s"MTCSC-A needs windows of at least 1 speed, got m = $m")
  require(beta > 0, s"MTCSC-A needs a positive beta, got $beta")
  require(tau >= 0, s"MTCSC-A needs a non-negative threshold, got tau = $tau")
  override def name: String = "MTCSC-A"

  private[core] override def repair(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int]): Unit =
    Chunked.repair(xs, out, bounds, initial, new Run(xs, _, _))

  /** A run of Algorithm 5 whose first step is at `lo`, from bound `s0`: C's
    * run, whose step first feeds xs(k)'s speed into the speed windows. It is
    * batch-only, with `closed` = true: a second call at the same k would feed
    * that speed twice. The windows hold raw speeds only, so they start as
    * any run's that reached lo: the last 2m positive-dt raw speeds before lo.
    */
  private final class Run(all: Array[TimePoint], lo: Int, s0: Double) extends MtcscC.Run(SpeedConstraint(s0, initial.w)) {
    private val state = new MtcscA.AdaptiveState(b, tau, m, beta)
    locally {
      var from = lo
      var speeds = 0
      while (from > 1 && speeds < 2 * m) { from -= 1; if (all(from).t > all(from - 1).t) speeds += 1 }
      while (from < lo) { state.update(all(from - 1), all(from), s0); from += 1 }
    }

    override def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, n: Int, closed: Boolean): Boolean = {
      val next = state.update(xs(k - 1), xs(k), s)
      if (next != s) recapture(next)
      super.step(out, xs, k, n, closed)
    }
  }
}

object MtcscA {

  /** Mutable Algorithm 5 state: two adjacent speed windows. Raw speeds
    * are stored (not bucket ids) so UpdateDistribution under a changed
    * constraint is a pure re-bucketing of the same values.
    *
    * The newest 2m speeds sit in one ring buffer, oldest first: W1 is
    * its older half and W2 its newer half. Once both are full, a step
    * costs O(b), whatever m is; only a recount or a new selection costs
    * O(m):
    *  - The bucket counts of both windows are kept up to date as one
    *    speed enters W2, one moves from W2 to W1 and one leaves W1; they
    *    are recounted only when `s` differs from the `s` they were counted
    *    under.
    *  - The KL verdict is recomputed only when a count changed, as the sum
    *    in bucket order of one term per count pair ([[klTerm]] over counts
    *    divided by m). Each pair's term is computed once and then looked
    *    up, so the sum is the same doubles added in the same order.
    *  - A recapture keeps the percentile q it selected, with how many of
    *    W2's speeds compare below and equal to q (`java.lang.Double.compare`,
    *    the order of [[SpeedConstraint.quantile]]); each slide updates both
    *    from the speed that leaves W2 and the one that enters it. While the
    *    nearest rank r satisfies below <= r < below + equal, q is still W2's
    *    r-th smallest speed, the very element `quantile` would select, and
    *    it is returned as is. Otherwise W2 is copied out of the ring and
    *    its percentile selected with `quantile`, the rule
    *    [[SpeedConstraint.capture]] applies.
    */
  final class AdaptiveState(b: Int, tau: Double, m: Int, beta: Double) {
    private val ring = new Array[Double](2 * m)
    private var oldest = 0 // ring index of W1's first speed once both are full
    private var filled = 0
    private val w2 = new Array[Double](m) // W2 copied out of the ring at a selection
    private val c1 = new Array[Int](b)
    private val c2 = new Array[Int](b)
    private var countedS = Double.NaN
    private var width = Double.NaN
    // Whether KL(W1 || W2) > tau; stale once the counts change.
    private var divergent = false
    private var stale = true
    // terms(x)(y): the KL term of counts (x, y), NaN until computed. A row
    // is allocated on first use while the memo holds under MemoEntries.
    private val terms = new Array[Array[Double]](m + 1)
    private var memoLeft = MemoEntries
    // The last selected percentile q of W2, and how many of W2's speeds
    // compare below it and equal to it. Until the first selection equal
    // is 0, so the first firing selects.
    private val rank = SpeedConstraint.nearestRank(m, Percentile)
    private var selected = false
    private var q = Double.NaN
    private var below = 0
    private var equal = 0

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

    /** KL(W1 || W2) over the current counts. */
    private def divergence(): Double = {
      var acc = 0.0
      var i = 0
      while (i < b) {
        if (c1(i) > 0) acc += term(c1(i), c2(i))
        i += 1
      }
      acc
    }

    private def term(x: Int, y: Int): Double = {
      var row = terms(x)
      if (row == null) {
        if (memoLeft <= m) return klTerm(x / m.toDouble, y / m.toDouble)
        row = new Array[Double](m + 1)
        java.util.Arrays.fill(row, Double.NaN)
        terms(x) = row
        memoLeft -= m + 1
      }
      var t = row(y)
      if (t != t) { // NaN: not yet computed
        t = klTerm(x / m.toDouble, y / m.toDouble)
        row(y) = t
      }
      t
    }

    /** W2's nearest-rank percentile, selected again only when the kept q
      * no longer holds rank r.
      */
    private def percentile(): Double = {
      if (below > rank || rank >= below + equal) {
        var i = 0
        while (i < m) { w2(i) = at(m + i); i += 1 }
        q = SpeedConstraint.quantile(w2, Percentile)
        below = 0
        equal = 0
        i = 0
        while (i < m) {
          val c = java.lang.Double.compare(w2(i), q)
          if (c < 0) below += 1 else if (c == 0) equal += 1
          i += 1
        }
        selected = true
      }
      q
    }

    /** Feed the speed of (p -> k); returns the (possibly updated) s. */
    def update(p: TimePoint, k: TimePoint, s: Double): Double = {
      val dt = k.t - p.t
      if (dt <= 0) return s
      val s1 = k.dist(p) / dt
      if (filled < ring.length) {
        ring(filled) = s1
        filled += 1
        return s
      }
      if (s != countedS) { recount(s); stale = true }
      if (stale) {
        divergent = divergence() > tau
        stale = false
      }
      val out = if (divergent) SpeedConstraint.floorSpeed(percentile() / beta) else s
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
      if (selected) {
        val c = java.lang.Double.compare(moving, q)
        if (c < 0) below -= 1 else if (c == 0) equal -= 1
        val d = java.lang.Double.compare(s1, q)
        if (d < 0) below += 1 else if (d == 0) equal += 1
      }
      ring(oldest) = s1
      oldest = if (oldest + 1 == ring.length) 0 else oldest + 1
      out
    }
  }

  /** The percentile of W2 a recapture takes, before dividing by beta. */
  private val Percentile = 0.95

  /** The most KL terms one state memoises: 8 MB, every count pair up to
    * m = 1,022. Beyond it a term is computed each time, to the same value.
    */
  private val MemoEntries = 1 << 20

  /** Bucket of speed `v`: b-1 equal intervals of `width = s / (b - 1)` over
    * [0, s] plus the overflow (s, inf). The one bucketing rule.
    */
  def bucket(v: Double, b: Int, s: Double, width: Double): Int =
    if (v > s) b - 1 else math.min(b - 2, math.max(0, math.ceil(v / width).toInt - 1))

  /** The KL term of probabilities p > 0 and q, with q clamped above 0. */
  private[core] def klTerm(p: Double, q: Double): Double = p * math.log(p / math.max(q, 1e-10))
}
