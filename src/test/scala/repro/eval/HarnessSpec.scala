package repro.eval

import org.scalatest.funsuite.AnyFunSuite
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
