package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness

/** Differential checks: the pruned MTCSC-G DP, MTCSC-L's shared step and
  * the array-backed MTCSC-C / A / Uni kernels against the readable
  * [[Reference]] versions, requiring the identical FixList and
  * bit-identical repairs. Inputs are random walks with D in {1, 2, 3, 8},
  * error rates up to 90%, duplicate timestamps and windows from below one
  * sampling step to many.
  */
class KernelDifferentialSpec extends AnyFunSuite {
  import KernelDifferentialSpec._

  test("pruned MTCSC-G returns the O(n²) DP's FixList") {
    forAllSampled(caseGen, 600) { c =>
      assert(MtcscG.fixList(c.xs, c.sc).toSeq == Reference.fixList(c.xs, c.sc).toSeq, c)
    }
  }

  test("MTCSC-L repairs are bit-identical to the reference loop") {
    forAllSampled(caseGen, 500) { c =>
      assertSame(MtcscL(c.sc).clean(c.xs), Reference.cleanL(c.xs, c.sc), c)
    }
  }

  test("array-backed BuildCluster picks the reference's largest-cluster head") {
    forAllSampled(caseGen, 300) { c =>
      val run = new MtcscC.Run(c.sc) // shared across windows of every length
      for (k <- 0 until c.xs.length - 1) {
        val end = math.min(c.xs.length, k + 1 + ((c.seed % 40 + k * 13) % 40).toInt)
        val clusters = Reference.buildClusters(c.xs(k), c.xs.slice(k + 1, end), c.sc)
        val want = if (clusters.isEmpty) -1 else k + 1 + clusters.maxBy(_.size).head
        assert(run.largestClusterHead(c.xs(k), c.xs, k + 1, end) == want, s"$c k=$k")
      }
    }
  }

  test("MTCSC-C repairs are bit-identical to the reference step") {
    forAllSampled(caseGen, 500) { c =>
      assertSame(MtcscC(c.sc).clean(c.xs), Reference.cleanC(c.xs, c.sc), c)
    }
  }

  test("MTCSC-C's step decides a point only once its window has closed; finished prefixes equal batch") {
    val g = for { c <- caseGen; cut <- Gen.choose(1, c.xs.length); mid <- Gen.choose(cut, c.xs.length) } yield (c, cut, mid)
    forAllSampled(g, 500) { case (c, cut, mid) =>
      val (xs, sc) = (c.xs, c.sc)
      val clue = s"$c cut=$cut mid=$mid"
      def closedAt(k: Int, n: Int) = (k + 1 until n).exists(i => xs(i).t > xs(k).t + sc.w)
      val batch = MtcscC(sc).clean(xs)
      // Only xs[0, cut) has arrived: step until the first open window.
      def open(): (Array[TimePoint], MtcscC.Run, Int) = {
        val out = TimePoint.copyOf(xs)
        val run = new MtcscC.Run(sc)
        var k = 1
        while (k < cut && run.step(out, xs, k, cut, closed = false)) {
          assert(closedAt(k, cut), s"$clue: point $k decided with its window open")
          assertSame(Array(out(k)), Array(batch(k)), s"$clue: decided point $k")
          k += 1
        }
        if (k < cut) assert(!closedAt(k, cut), s"$clue: point $k held with its window closed")
        for (i <- k until xs.length) assertSame(Array(out(i)), Array(xs(i)), s"$clue: held point $i")
        (out, run, k)
      }
      // The stream ends at the cut: closing it equals batch C on the prefix.
      val (atCut, r1, k1) = open()
      for (k <- k1 until cut) assert(r1.step(atCut, xs, k, cut, closed = true))
      assertSame(atCut.take(cut), MtcscC(sc).clean(xs.take(cut)), s"$clue: closed at the cut")
      // More points arrive, up to `mid` and then the rest, and the stream
      // closes: the same state carries on to batch C on the whole series.
      val (grown, r2, k2) = open()
      var k = k2
      while (k < mid && r2.step(grown, xs, k, mid, closed = false)) k += 1
      while (k < xs.length) { assert(r2.step(grown, xs, k, xs.length, closed = true)); k += 1 }
      assertSame(grown, batch, s"$clue: grown to the whole series")
    }
  }

  test("every registry cleaner and MTCSC-A return finite values, duplicate timestamps included") {
    // HTD captures from the series itself, which needs two distinct timestamps.
    forAllSampled(caseGen.suchThat(c => c.xs.last.t > c.xs.head.t), 500) { c =>
      val cfg = Harness.Config(c.sc, Array.fill(c.xs(0).dim)(c.sc))
      for (cleaner <- Harness.methods(cfg, c.xs) :+ MtcscA(c.sc, m = 20)) {
        val out = cleaner.clean(c.xs)
        val bad = out.indexWhere(_.v.exists(x => !java.lang.Double.isFinite(x)))
        assert(bad < 0, s"$c ${cleaner.name}: point $bad is ${out.lift(bad)}")
      }
    }
  }

  test("MTCSC-A repairs are bit-identical to the reference state, recaptures included") {
    val g = for {
      c <- caseGen
      m <- Gen.choose(2, 20)
      b <- Gen.oneOf(3, 6, 10)
      tau <- Gen.oneOf(0.05, 0.25, 0.75)
    } yield (c, MtcscA(c.sc, b = b, tau = tau, m = m))
    var recaptures = 0
    forAllSampled(g, 500) { case (c, a) =>
      val (want, changes) = Reference.cleanA(c.xs, a)
      recaptures += changes
      assertSame(a.clean(c.xs), want, s"$c $a")
    }
    assert(recaptures > 500, s"only $recaptures recaptures fired")
    // The paper's defaults (m = 150) on GPS(Mixed), from walking speed.
    val gps = TimeSeriesGen.gpsMixed(8000)
    val paper = MtcscA(SpeedConstraint(1.6, 10.0))
    val (want, changes) = Reference.cleanA(gps.dirty, paper)
    assert(changes > 0, "no recapture fired at m = 150")
    assertSame(paper.clean(gps.dirty), want, paper)
  }

  test("MTCSC-Uni repairs are bit-identical to reference MTCSC-C per dimension") {
    val g = for {
      c <- caseGen
      ss <- Gen.listOfN(8, Gen.choose(0.2, 2.0))
    } yield (c, Array.tabulate(c.xs(0).dim)(l => SpeedConstraint(ss(l), c.sc.w)))
    forAllSampled(g, 400) { case (c, scs) =>
      assertSame(MtcscUni(scs).clean(c.xs), Reference.cleanUni(c.xs, scs), c)
    }
  }

  test("MTCSC-Uni with one constraint object for every dimension equals MTCSC-C per dimension") {
    // Uni refills one buffer and hands each dimension the same object
    // here, so C's window state must belong to each dimension's fresh run,
    // not be keyed on the identity of the series or the constraint.
    forAllSampled(caseGen, 300) { c =>
      val d = c.xs(0).dim
      val got = MtcscUni(Array.fill(d)(c.sc)).clean(c.xs)
      for (l <- 0 until d) {
        val want = MtcscC(c.sc).clean(c.xs.map(p => TimePoint.uni(p.t, p.v(l))))
        assertSame(got.map(p => TimePoint.uni(p.t, p.v(l))), want, s"$c dimension $l")
      }
    }
  }

  test("MTCSC-A equals the reference when KL fires often (m = 20, tau = 0.1, gpsWalk)") {
    // Every recapture swaps the constraint under C's window state. At
    // beta = 1 a recaptured s sits inside the walking speeds, so pairs
    // tested under the old s would mislead the new one unless the
    // recapture forgets the window.
    val gps = TimeSeriesGen.gpsWalk(11000, seed = 29)
    for (beta <- Seq(0.75, 1.0)) {
      val a = MtcscA(SpeedConstraint(1.6, 30.0), m = 20, tau = 0.1, beta = beta)
      val (want, changes) = Reference.cleanA(gps.dirty, a)
      assert(changes > 300, s"only $changes recaptures")
      assertSame(a.clean(gps.dirty), want, a)
    }
  }

  test("MTCSC-A recapturing on many steps, inside C's windows, equals the reference") {
    // With one speed per window, two buckets and tau = 0, KL fires where
    // the last two raw speeds fall on either side of s, and each firing
    // swaps the constraint under verdicts C's run took on the old one.
    var recaptures = 0
    forAllSampled(caseGen, 400) { c =>
      val a = MtcscA(c.sc, b = 2, tau = 0.0, m = 1, beta = 1.0)
      val (want, changes) = Reference.cleanA(c.xs, a)
      recaptures += changes
      assertSame(a.clean(c.xs), want, s"$c $a")
    }
    assert(recaptures > 1000, s"only $recaptures recaptures fired")
  }

  test("all kernels match the reference on TAO with Together errors at 10% and 50%") {
    val truth = TimeSeriesGen.tao(3000, seed = 5)
    val cfg = Harness.configFrom(truth, w = 10)
    for (rate <- Seq(0.1, 0.5)) {
      val dirty = ErrorInjector.inject(truth, rate, ErrorInjector.Together, seed = 6)
      assert(MtcscG.fixList(dirty, cfg.sc).toSeq == Reference.fixList(dirty, cfg.sc).toSeq)
      assertSame(MtcscL(cfg.sc).clean(dirty), Reference.cleanL(dirty, cfg.sc), s"L $rate")
      assertSame(MtcscC(cfg.sc).clean(dirty), Reference.cleanC(dirty, cfg.sc), s"C $rate")
      val a = MtcscA(cfg.sc, m = 30, tau = 0.25)
      assertSame(a.clean(dirty), Reference.cleanA(dirty, a)._1, s"A $rate")
      assertSame(MtcscUni(cfg.uniScs).clean(dirty), Reference.cleanUni(dirty, cfg.uniScs), s"Uni $rate")
    }
  }

  test("C, A and Uni match the reference on gpsWalk 200k at w = 30") {
    // C's half-window rule decides about 95% of the steps on gpsWalk 200k
    // (seed 1), against about 58% on TAO 568k with 10% Together errors.
    val gps = TimeSeriesGen.gpsWalk(200000, seed = 7)
    val sc = SpeedConstraint(1.6, 30.0)
    val uniScs = Harness.configFrom(gps.truth, w = 30).uniScs
    assertSame(MtcscC(sc).clean(gps.dirty), Reference.cleanC(gps.dirty, sc), "C gpsWalk")
    val a = MtcscA(sc)
    assertSame(a.clean(gps.dirty), Reference.cleanA(gps.dirty, a)._1, "A gpsWalk")
    assertSame(MtcscUni(uniScs).clean(gps.dirty), Reference.cleanUni(gps.dirty, uniScs), "Uni gpsWalk")
  }
}

object KernelDifferentialSpec {
  import org.scalatest.Assertions._

  def forAllSampled[A](gen: Gen[A], trials: Int)(check: A => Unit): Unit =
    for (i <- 0 until trials) check(gen.pureApply(Gen.Parameters.default, Seed(i.toLong)))

  final case class Case(xs: Array[TimePoint], sc: SpeedConstraint, seed: Long) {
    override def toString: String = s"Case(n=${xs.length}, D=${xs.headOption.map(_.dim)}, $sc, seed=$seed)"
  }

  /** A random walk (speed about 1 per unit time) sampled at gaps of 0
    * (a duplicate timestamp) or 0.25-2, with a share `rate` of points
    * hit by errors: far outliers, small off-trend shifts, and runs of a
    * shared dirty value.
    */
  val caseGen: Gen[Case] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    n <- Gen.choose(2, 240)
    d <- Gen.oneOf(1, 2, 3, 8)
    rate <- Gen.oneOf(0.0, 0.05, 0.2, 0.5, 0.9)
    dup <- Gen.oneOf(0.0, 0.1, 0.3)
    w <- Gen.oneOf(0.5, 1.0, 2.0, 5.0, 10.0, 30.0)
    s <- Gen.choose(0.3, 3.0)
  } yield {
    val r = new java.util.Random(seed)
    var t = 0.0
    val x = new Array[Double](d)
    var runLeft = 0
    var runValue: Array[Double] = null
    val xs = Array.tabulate(n) { _ =>
      if (r.nextDouble() >= dup) t += 0.25 + 1.75 * r.nextDouble()
      for (l <- 0 until d) x(l) += r.nextGaussian() / math.sqrt(d.toDouble)
      val v = x.clone()
      if (runLeft > 0) { runLeft -= 1; System.arraycopy(runValue, 0, v, 0, d) }
      else if (r.nextDouble() < rate) r.nextInt(3) match {
        case 0 => for (l <- 0 until d) v(l) += (r.nextDouble() - 0.5) * 100
        case 1 => v(r.nextInt(d)) += (if (r.nextBoolean()) 1 else -1) * (0.5 + 2.5 * r.nextDouble())
        case _ =>
          runLeft = r.nextInt(6)
          runValue = Array.fill(d)(r.nextGaussian() * 40)
          System.arraycopy(runValue, 0, v, 0, d)
      }
      TimePoint(t, v)
    }
    Case(xs, SpeedConstraint(s, w), seed)
  }

  def assertSame(got: Array[TimePoint], want: Array[TimePoint], clue: Any): Unit = {
    assert(got.length == want.length, clue)
    for (i <- got.indices) {
      assert(got(i).t == want(i).t, s"$clue: t at $i")
      assert(java.util.Arrays.equals(got(i).v, want(i).v),
        s"$clue: point $i is ${got(i)}, reference ${want(i)}")
    }
  }
}
