package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.PerDim
import repro.core._
import repro.data.TimeSeriesGen

class HarnessSpec extends AnyFunSuite {

  private lazy val gps = TimeSeriesGen.gpsWalk(600, seed = 5)

  test("configFrom captures a multivariate and per-dimension constraints") {
    val cfg = Harness.configFrom(gps.truth, w = 10.0)
    assert(cfg.sc.w == 10.0)
    assert(cfg.sc.s > 0)
    assert(cfg.uniScs.length == 2)
    // per-dimension speeds are componentwise, so each is <= the joint speed cap
    cfg.uniScs.foreach(u => assert(u.s <= cfg.sc.s + 1e-9))
  }

  test("configFrom slack widens the constraint") {
    val tight = Harness.configFrom(gps.truth, 10.0, slack = 1.0)
    val loose = Harness.configFrom(gps.truth, 10.0, slack = 1.5)
    assert(loose.sc.s > tight.sc.s)
  }

  test("captureAccelerations captures SpeedAcc's caps from consecutive speed changes") {
    // Irregular timestamps with repeats, so steps with a zero dt are skipped.
    val r = new java.util.Random(3)
    var t = 0.0
    val xs = Array.tabulate(300) { i =>
      if (i % 9 != 4) t += 0.5 + r.nextDouble()
      TimePoint(t, Array(r.nextGaussian(), 10 * r.nextGaussian()))
    }
    val caps = PerDim.captureAccelerations(xs, percentile = 0.9, slack = 1.1)
    assert(caps.length == 2)
    for (l <- 0 until 2) {
      val accs = for {
        k <- 2 until xs.length
        dt = xs(k).t - xs(k - 1).t
        dtPrev = xs(k - 1).t - xs(k - 2).t
        if dt > 0 && dtPrev > 0
      } yield math.abs((xs(k).v(l) - xs(k - 1).v(l)) / dt - (xs(k - 1).v(l) - xs(k - 2).v(l)) / dtPrev) / dt
      val sorted = accs.sorted
      assert(caps(l) == sorted(math.ceil(0.9 * sorted.length).toInt - 1) * 1.1, s"dimension $l")
    }
    assert(PerDim.captureAccelerations(xs.take(2), 0.99, 1.15).forall(_.isPosInfinity))
  }

  test("the registry's SpeedAcc cap binds: its repair differs from SCREEN's") {
    val truth = TimeSeriesGen.tao(5000, seed = 2)
    val dirty = repro.data.ErrorInjector.inject(truth, 0.1, repro.data.ErrorInjector.Together, 2)
    val cfg = Harness.configFrom(truth, 10.0)
    val by = Harness.methods(cfg, truth).map(c => c.name -> c).toMap
    val (screen, speedAcc) = (by("SCREEN").clean(dirty), by("SpeedAcc").clean(dirty))
    assert(screen.indices.exists(i => !screen(i).sameValues(speedAcc(i), 0.0)))
  }

  test("methods builds the full zoo in table order") {
    val cfg = Harness.configFrom(gps.truth, 10.0)
    assert(Harness.methods(cfg, gps.truth).map(_.name) == Seq(
      "MTCSC-G", "MTCSC-L", "MTCSC-C", "MTCSC-Uni", "SCREEN", "SpeedAcc", "LsGreedy",
      "EWMA", "RCSWS", "HTD", "HoloClean", "TranAD", "CAE-M"))
  }

  test("score computes all four metrics") {
    val dirty = gps.dirty.take(100)
    val truth = gps.truth.take(100)
    val row = Harness.score("X", truth, dirty, truth, 7)
    assert(row.rmse == 0.0)
    assert(row.millis == 7)
    assert(row.repairCount == Metrics.repairCount(truth, dirty))
  }

  test("formatTable renders one line per row plus header and title") {
    val rows = Seq(Harness.ResultRow("A", 1.0, 0.5, 3, 0.01, 12))
    val s = Harness.formatTable("t", rows)
    assert(s.linesIterator.size == 3)
    assert(s.contains("A") && s.contains("== t =="))
  }
}
