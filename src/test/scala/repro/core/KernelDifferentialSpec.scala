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

  private def forAllSampled[A](gen: Gen[A], trials: Int)(check: A => Unit): Unit =
    for (i <- 0 until trials) check(gen.pureApply(Gen.Parameters.default, Seed(i.toLong)))

  final case class Case(xs: Array[TimePoint], sc: SpeedConstraint, seed: Long) {
    override def toString: String = s"Case(n=${xs.length}, D=${xs.headOption.map(_.dim)}, $sc, seed=$seed)"
  }

  /** A random walk (speed about 1 per unit time) sampled at gaps of 0
    * (a duplicate timestamp) or 0.25-2, with a share `rate` of points
    * hit by errors: far outliers, small off-trend shifts, and runs of a
    * shared dirty value.
    */
  private val caseGen: Gen[Case] = for {
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

  private def assertSame(got: Array[TimePoint], want: Array[TimePoint], clue: Any): Unit = {
    assert(got.length == want.length, clue)
    for (i <- got.indices) {
      assert(got(i).t == want(i).t, s"$clue: t at $i")
      assert(java.util.Arrays.equals(got(i).v, want(i).v),
        s"$clue: point $i is ${got(i)}, reference ${want(i)}")
    }
  }

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
    val scratch = new MtcscC.Scratch // shared across windows of every length
    forAllSampled(caseGen, 300) { c =>
      for (k <- 0 until c.xs.length - 1) {
        val end = math.min(c.xs.length, k + 1 + ((c.seed % 40 + k * 13) % 40).toInt)
        val clusters = Reference.buildClusters(c.xs(k), c.xs.slice(k + 1, end), c.sc)
        val want = if (clusters.isEmpty) -1 else k + 1 + clusters.maxBy(_.size).head
        assert(MtcscC.largestClusterHead(c.xs(k), c.xs, k + 1, end, c.sc, scratch) == want, s"$c k=$k")
      }
    }
  }

  test("MTCSC-C repairs are bit-identical to the reference step") {
    forAllSampled(caseGen, 500) { c =>
      assertSame(MtcscC(c.sc).clean(c.xs), Reference.cleanC(c.xs, c.sc), c)
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
}
