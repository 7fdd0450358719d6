package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MtcscASpec extends AnyFunSuite {

  test("bucket layout matches Example 4.1 (s=2.2, b=6)") {
    // buckets: [0,0.44],(0.44,0.88],(0.88,1.32],(1.32,1.76],(1.76,2.2],(2.2,inf)
    val speeds = Seq(0.0, 0.44, 0.45, 0.88, 1.0, 1.76, 2.2, 2.21, 5.0)
    val counts = Reference.bucketCounts(speeds, b = 6, s = 2.2)
    assert(counts.toSeq == Seq(2, 2, 1, 1, 1, 2))
  }

  test("Example 4.1: KL divergence of W1/W2 distributions is ~0.78") {
    // W1 counts {0,0,0,90,60,0}, W2 counts {3,4,1,44,25,73} over m = 150.
    val w1 = Seq.fill(90)(1.5) ++ Seq.fill(60)(2.0)                   // buckets 3 and 4
    val w2 = Seq.fill(3)(0.2) ++ Seq.fill(4)(0.6) ++ Seq.fill(1)(1.0) ++
      Seq.fill(44)(1.5) ++ Seq.fill(25)(2.0) ++ Seq.fill(73)(3.0)
    val p1 = Reference.distribution(w1, 6, 2.2)
    val p2 = Reference.distribution(w2, 6, 2.2)
    assert(p1.toSeq == Seq(0.0, 0.0, 0.0, 0.6, 0.4, 0.0))
    val kl = Reference.kl(p1, p2)
    assert(math.abs(kl - 0.7796) < 0.01, s"kl=$kl")
    assert(kl > 0.75) // exceeds the paper's tau = 0.75, triggering re-capture
  }

  test("Example 4.1: re-captured constraint is s95(W2)/beta") {
    val w2 = Array.fill(142)(3.0) ++ Array.fill(8)(3.572)
    val s95 = SpeedConstraint.quantile(w2, 0.95)
    assert(math.abs(s95 / 0.75 - 4.763) < 0.01)
  }

  test("KL of identical distributions is zero") {
    val p = Array(0.2, 0.3, 0.5)
    assert(Reference.kl(p, p) == 0.0)
  }

  test("KL is non-negative") {
    val p = Array(0.7, 0.2, 0.1)
    val q = Array(0.1, 0.2, 0.7)
    assert(Reference.kl(p, q) >= 0.0)
  }

  test("distribution of an empty window is all-zero") {
    assert(Reference.distribution(Seq.empty, 6, 1.0).forall(_ == 0.0))
  }

  test("AdaptiveState leaves s unchanged while windows fill") {
    val st = new MtcscA.AdaptiveState(b = 6, tau = 0.75, m = 5, beta = 0.75)
    var s = 1.0
    for (i <- 1 to 10) { // fills W1 (5) then W2 (5), never compares
      s = st.update(TimePoint.uni(i - 1, 0.0), TimePoint.uni(i, 0.5), s)
      assert(s == 1.0)
    }
  }

  test("AdaptiveState raises s after a sustained speed increase") {
    val st = new MtcscA.AdaptiveState(b = 6, tau = 0.5, m = 20, beta = 0.75)
    var s = 1.0
    var t = 0.0
    var x = 0.0
    // slow phase fills both windows
    for (_ <- 0 until 40) { val p = (t, x); t += 1; x += 0.5; s = st.update(TimePoint.uni(p._1, p._2), TimePoint.uni(t, x), s) }
    assert(s == 1.0)
    // fast phase: speeds of 4.0 flood W2
    var captured = s
    for (_ <- 0 until 40) { val p = (t, x); t += 1; x += 4.0; captured = st.update(TimePoint.uni(p._1, p._2), TimePoint.uni(t, x), captured) }
    assert(captured > 1.0, s"s should have been re-captured, got $captured")
    assert(math.abs(captured - 4.0 / 0.75) < 0.7) // ~ s95/beta
  }

  test("MTCSC-A cleans a mode-changing series better than a fixed tight constraint") {
    val rnd = new java.util.Random(3)
    // phase 1: slow (speed 0.5), phase 2: fast (speed 4.0), with spikes
    val n = 600
    val truth = new Array[TimePoint](n)
    var x = 0.0
    for (i <- 0 until n) {
      x += (if (i < n / 2) 0.5 else 4.0)
      truth(i) = TimePoint.uni(i.toDouble, x)
    }
    val dirty = TimePoint.copyOf(truth)
    for (_ <- 0 until 12) {
      val i = 1 + rnd.nextInt(n - 1)
      dirty(i).v(0) = truth(i).v(0) + 60 + rnd.nextDouble() * 20
    }
    val tight = SpeedConstraint(0.8, 10.0) // right for phase 1 only
    val fixedRmse = repro.eval.Metrics.rmse(MtcscC(tight).clean(dirty), truth)
    val adaptRmse = repro.eval.Metrics.rmse(MtcscA(tight, m = 50, tau = 0.5).clean(dirty), truth)
    assert(adaptRmse < fixedRmse,
      s"adaptive ($adaptRmse) should beat the mis-set fixed constraint ($fixedRmse)")
  }

  test("MTCSC-A passes a stuck sensor's constant stretch through unchanged") {
    // 400 points moving at speed 1, then 400 copies of the last value. W2
    // fills with zero speeds, KL fires and the recapture reads s = 0.
    for (d <- 1 to 2) {
      val xs = Array.tabulate(800)(i => TimePoint(i.toDouble, Array.fill(d)(math.min(i, 399) / math.sqrt(d))))
      val out = MtcscA(SpeedConstraint(2.0, 10.0)).clean(xs)
      for (i <- xs.indices) assert(java.util.Arrays.equals(out(i).v, xs(i).v), s"D=$d point $i: ${out(i)}")
    }
  }

  test("MTCSC-A equals MTCSC-C while the speed distribution is stable") {
    val pts = Array.tabulate(80)(i => TimePoint.uni(i.toDouble,
      if (i == 40) 100.0 else i * 0.3))
    val sc = SpeedConstraint(1.0, 5.0)
    val a = MtcscA(sc, m = 200).clean(pts) // windows never fill: s never changes
    val c = MtcscC(sc).clean(pts)
    assert(pts.indices.forall(i => a(i).sameValues(c(i))))
  }

  /** A 1-D series of segments that stand still, move in a few quantised
    * steps (so many speeds tie at the percentile), or move at random, with
    * time gaps of 0, 1 or 2.
    */
  private def segmented(n: Int, m: Int, seed: Long): Array[TimePoint] = {
    val rnd = new java.util.Random(seed)
    val xs = new Array[TimePoint](n)
    var (t, x) = (0.0, 0.0)
    var kind, left = 0
    for (i <- 0 until n) {
      if (left == 0) { kind = rnd.nextInt(4); left = m / 2 + 1 + rnd.nextInt(3 * m + 1) }
      left -= 1
      if (i > 0) {
        t += (if (rnd.nextInt(20) == 0) 0 else 1 + rnd.nextInt(2))
        x += (kind match {
          case 0 => 0.0
          case 1 => 0.25 * rnd.nextInt(3)
          case 2 => 0.25 * (5 + rnd.nextInt(3))
          case _ => rnd.nextGaussian()
        })
      }
      xs(i) = TimePoint.uni(t, x)
    }
    xs
  }

  /** Feeds `xs` to the kernel's and the reference's state, each with its
    * own s, checks that the two s agree bit for bit at every step, and
    * returns how many steps moved s.
    */
  private def sameTrajectory(xs: Array[TimePoint], b: Int, tau: Double, m: Int, what: String): Int = {
    val st = new MtcscA.AdaptiveState(b, tau, m, 0.75)
    val ref = new Reference.AdaptiveState(b, tau, m, 0.75)
    var (s, r, changes) = (1.0, 1.0, 0)
    for (k <- 1 until xs.length) {
      val s2 = st.update(xs(k - 1), xs(k), s)
      r = ref.update(xs(k - 1), xs(k), r)
      assert(java.lang.Double.doubleToRawLongBits(s2) == java.lang.Double.doubleToRawLongBits(r),
        s"$what step $k: $s2 against the reference's $r")
      if (s2 != s) changes += 1
      s = s2
    }
    changes
  }

  test("AdaptiveState returns the reference's s bit for bit at every step") {
    val changes = (for (m <- Seq(1, 2, 20, 150); b <- Seq(2, 6); tau <- Seq(0.0, 0.75); seed <- 1 to 3)
      yield sameTrajectory(segmented(2 * m + 3000, m, seed * 1000L + m), b, tau, m, s"m=$m b=$b tau=$tau seed=$seed")).sum
    assert(changes > 1000, s"only $changes recaptures moved s")
  }

  test("AdaptiveState matches the reference once its KL memo is full") {
    // At m = 16,383 a memo row holds 16,384 terms, so 64 distinct W1
    // counts fill the memo and the terms of later ones are computed each
    // time. On a random walk KL stays near 1e-4, so a threshold there
    // flips the verdict often.
    val m = 16383
    val rnd = new java.util.Random(7)
    var x = 0.0
    val xs = Array.tabulate(2 * m + 4000) { i => if (i > 0) x += rnd.nextGaussian(); TimePoint.uni(i.toDouble, x) }
    val changes = sameTrajectory(xs, 6, 1e-4, m, s"m=$m")
    assert(changes > 100, s"only $changes recaptures moved s")
  }

  test("MTCSC-A's memory grows with use, not with m squared") {
    // The windows of m = 100,000 never fill on 1,000 points, so s never
    // changes; a KL table sized (m + 1)² up front would need about 80 GB.
    val rnd = new java.util.Random(5)
    val xs = Array.tabulate(1000)(i => TimePoint.uni(i.toDouble, i * 0.3 + (if (rnd.nextInt(20) == 0) 50.0 else 0.0)))
    val sc = SpeedConstraint(1.0, 5.0)
    val a = MtcscA(sc, m = 100000).clean(xs)
    val c = MtcscC(sc).clean(xs)
    assert(xs.indices.forall(i => java.util.Arrays.equals(a(i).v, c(i).v)))
  }

  test("MTCSC-A rejects parameters it cannot run with") {
    val sc = SpeedConstraint(1.0, 5.0)
    for ((make, detail) <- Seq[(() => MtcscA, String)](
           (() => MtcscA(sc, b = 1), "got b = 1"),
           (() => MtcscA(sc, m = 0), "got m = 0"),
           (() => MtcscA(sc, beta = 0), "positive beta, got 0.0"),
           (() => MtcscA(sc, tau = -1), "got tau = -1.0"),
           (() => MtcscA(sc, tau = Double.NaN), "got tau = NaN"))) {
      val e = intercept[IllegalArgumentException](make())
      assert(e.getMessage.contains(detail), e.getMessage)
    }
  }
}
