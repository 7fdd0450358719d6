package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{SpeedConstraint, TimePoint}
import repro.data.TimeSeriesGen
import repro.eval.Metrics

/** Sanity behaviour of every competitor implementation. */
class BaselinesSpec extends AnyFunSuite {

  /** Linear trend with one large spike at index 20. */
  private def spiky(n: Int = 40, spikeAt: Int = 20, mag: Double = 50.0): (Array[TimePoint], Array[TimePoint]) = {
    val truth = Array.tabulate(n)(i => TimePoint.uni(i.toDouble, i * 0.3))
    val dirty = TimePoint.copyOf(truth)
    dirty(spikeAt).v(0) = mag
    (dirty, truth)
  }

  private val sc1 = Array(SpeedConstraint(0.6, 5.0))

  // ------------------------------------------------------------- SCREEN

  test("SCREEN repairs an isolated spike") {
    val (dirty, truth) = spiky()
    val out = Screen(sc1).clean(dirty)
    assert(Metrics.rmse(out, truth) < Metrics.rmse(dirty, truth) / 4)
  }

  test("SCREEN leaves a clean series unchanged") {
    val clean = Array.tabulate(30)(i => TimePoint.uni(i.toDouble, i * 0.3))
    val out = Screen(sc1).clean(clean)
    assert(clean.indices.forall(i => out(i).sameValues(clean(i), 1e-9)))
  }

  test("SCREEN produces border repairs (minimum change): repaired value sits on the bound") {
    val (dirty, _) = spiky()
    val out = Screen(sc1).clean(dirty)
    // clamp: repaired value = upper bound = x'_{19} + s * dt < spike value
    assert(out(20).v(0) <= dirty(19).v(0) + 0.6 + 1e-9)
    assert(out(20).v(0) > dirty(19).v(0)) // pulled toward the spike (border)
  }

  test("SCREEN cleans each dimension separately") {
    val pts = Array.tabulate(30)(i => TimePoint(i.toDouble,
      Array(i * 0.3, if (i == 15) 40.0 else 1.0)))
    val out = Screen(Array(SpeedConstraint(0.6, 5.0), SpeedConstraint(0.6, 5.0))).clean(pts)
    assert(pts.indices.forall(i => out(i).v(0) == pts(i).v(0)))
    assert(out(15).v(1) < 39.0)
  }

  test("SCREEN capture builds per-dimension constraints") {
    val pts = Array.tabulate(100)(i => TimePoint(i.toDouble, Array(i * 1.0, i * 3.0)))
    val scs = PerDim.captureSpeeds(pts, w = 5)
    assert(scs.length == 2 && scs(1).s > scs(0).s * 2)
  }

  test("captureSpeeds equals capture over one univariate copy per dimension") {
    def viaCopies(xs: Array[TimePoint], w: Double, p: Double, slack: Double) =
      Array.tabulate(xs(0).dim)(l => SpeedConstraint.capture(xs.map(q => TimePoint.uni(q.t, q.v(l))), w, p, slack))
    val rnd = new java.util.Random(17)
    val random = Seq.fill(40) {
      var t = 0.0
      val d = 1 + rnd.nextInt(4)
      Array.fill(2 + rnd.nextInt(300)) {
        if (rnd.nextDouble() > 0.2) t += rnd.nextDouble() * 3 // some duplicate timestamps
        TimePoint(t, Array.fill(d)(if (rnd.nextDouble() < 0.1) 0.0 else rnd.nextGaussian() * 5))
      }
    }.filter(xs => xs.last.t > xs.head.t)
    for (xs <- TimeSeriesGen.tao(20000) +: random; (p, slack) <- Seq((0.95, 1.0), (0.99, 1.15), (0.5, 1.0)))
      assert(PerDim.captureSpeeds(xs, 10, p, slack).toSeq == viaCopies(xs, 10, p, slack).toSeq, s"n=${xs.length}")
  }

  // ----------------------------------------------------------- SpeedAcc

  test("SpeedAcc repairs an isolated spike") {
    val (dirty, truth) = spiky()
    val out = SpeedAcc(sc1, Array(1.0)).clean(dirty)
    assert(Metrics.rmse(out, truth) < Metrics.rmse(dirty, truth) / 4)
  }

  test("SpeedAcc leaves a clean constant-speed series unchanged") {
    val clean = Array.tabulate(30)(i => TimePoint.uni(i.toDouble, i * 0.3))
    val out = SpeedAcc(sc1, Array(1.0)).clean(clean)
    assert(clean.indices.forall(i => out(i).sameValues(clean(i), 1e-9)))
  }

  test("SpeedAcc is at least as constrained as SCREEN on an acceleration burst") {
    // A value running away at constant high speed violates acceleration first.
    val dirty = Array.tabulate(20)(i => TimePoint.uni(i.toDouble,
      if (i >= 10) 3.0 + (i - 10) * 0.59 else i * 0.3))
    val screen = Screen(sc1).clean(dirty)
    val acc = SpeedAcc(sc1, Array(0.05)).clean(dirty)
    val changedScreen = dirty.indices.count(i => !screen(i).sameValues(dirty(i), 1e-9))
    val changedAcc = dirty.indices.count(i => !acc(i).sameValues(dirty(i), 1e-9))
    assert(changedAcc >= changedScreen)
  }

  // ----------------------------------------------------------- LsGreedy

  test("LsGreedy repairs an isolated spike") {
    val (dirty, truth) = spiky()
    val out = LsGreedy().clean(dirty)
    assert(Metrics.rmse(out, truth) < Metrics.rmse(dirty, truth) / 4)
  }

  test("LsGreedy repairs toward neighbour interpolation") {
    val (dirty, _) = spiky()
    val out = LsGreedy().clean(dirty)
    assert(math.abs(out(20).v(0) - 6.0) < 0.5) // truth is 6.0
  }

  test("LsGreedy degrades when error rate is high (sigma inflation)") {
    val n = 200
    val truth = Array.tabulate(n)(i => TimePoint.uni(i.toDouble, i * 0.1))
    val rnd = new java.util.Random(1)
    def corrupt(rate: Double): Array[TimePoint] = {
      val d = TimePoint.copyOf(truth)
      for (i <- 1 until n) if (rnd.nextDouble() < rate) d(i).v(0) = rnd.nextDouble() * 30
      d
    }
    val low = corrupt(0.05)
    val high = corrupt(0.4)
    val lowFrac = Metrics.repairFraction(LsGreedy().clean(low), low) / 0.05
    val highFrac = Metrics.repairFraction(LsGreedy().clean(high), high) / 0.4
    assert(highFrac < lowFrac, "relative repair coverage should drop at high error rates")
  }

  test("LsGreedy leaves a smooth series unchanged") {
    val clean = Array.tabulate(60)(i => TimePoint.uni(i.toDouble, i * 0.3))
    val out = LsGreedy().clean(clean)
    assert(clean.indices.forall(i => out(i).sameValues(clean(i), 1e-9)))
  }

  // --------------------------------------------------------------- EWMA

  test("EWMA modifies essentially every point (over-repair)") {
    val pts = Array.tabulate(100)(i => TimePoint.uni(i.toDouble, math.sin(i * 0.3)))
    val out = Ewma().clean(pts)
    assert(Metrics.repairFraction(out, pts) > 0.95)
  }

  test("EWMA dampens a spike but drags its neighbours") {
    val (dirty, truth) = spiky()
    val out = Ewma().clean(dirty)
    assert(out(20).v(0) < dirty(20).v(0)) // spike dampened
    assert(out(21).v(0) > truth(21).v(0) + 5) // error smeared forward
  }

  // -------------------------------------------------------------- RCSWS

  test("RCSWS repairs an isolated spike to the window median") {
    val (dirty, truth) = spiky()
    val out = Rcsws().clean(dirty)
    assert(Metrics.rmse(out, truth) < Metrics.rmse(dirty, truth))
  }

  test("RCSWS leaves slowly varying data mostly unchanged") {
    val clean = Array.tabulate(100)(i => TimePoint(i.toDouble, Array(i * 0.05, -i * 0.05)))
    val out = Rcsws().clean(clean)
    assert(Metrics.repairFraction(out, clean) < 0.05)
  }

  // ---------------------------------------------------------------- HTD

  test("HTD repairs an isolated spike") {
    val (dirty, truth) = spiky()
    val out = Htd.captureFromTruth(truth, 5.0).clean(dirty)
    assert(Metrics.rmse(out, truth) < Metrics.rmse(dirty, truth) / 4)
  }

  test("HTD misses consecutive error runs (conservative by design)") {
    val truth = Array.tabulate(60)(i => TimePoint.uni(i.toDouble, i * 0.3))
    val dirty = TimePoint.copyOf(truth)
    for (i <- 20 until 30) dirty(i).v(0) = 50.0 // 10-point run
    val out = Htd.captureFromTruth(truth, 5.0).clean(dirty)
    // interior of the run survives: only edges can look like spikes
    assert(Metrics.repairCount(out, dirty) <= 2)
  }

  // ---------------------------------------------------------- HoloClean

  test("HoloClean-lite repairs a violating cell to a plausible bucket") {
    val (dirty, truth) = spiky()
    val out = HoloCleanLite(sc1).clean(dirty)
    assert(Metrics.rmse(out, truth) < Metrics.rmse(dirty, truth))
  }

  test("HoloClean-lite repairs are quantised to bucket centres") {
    val (dirty, _) = spiky()
    val out = HoloCleanLite(sc1).clean(dirty) // 50 buckets
    assert(out(20).v(0) != dirty(20).v(0), "spike repaired")
    val lo = dirty.map(_.v(0)).min
    val hi = dirty.map(_.v(0)).max
    val width = (hi - lo) / 50
    val centers = (0 until 50).map(b => lo + (b + 0.5) * width)
    assert(centers.exists(c => math.abs(out(20).v(0) - c) < 1e-9))
  }

  test("HoloClean-lite keeps a cell when no candidate can satisfy either constraint") {
    val (dirty, _) = spiky(mag = 250.0)
    // 50 buckets over [0, 250], 5 wide: every centre violates both neighbour constraints
    val out = HoloCleanLite(sc1).clean(dirty)
    assert(out(20).v(0) == dirty(20).v(0))
  }

  // ------------------------------------------------------- deep learning

  test("TranAD-lite replaces a large spike with a prediction closer to the truth") {
    val (dirty, truth) = spiky(n = 300, spikeAt = 200, mag = 150.0)
    val out = TranAdLite().clean(dirty)
    assert(math.abs(out(200).v(0) - truth(200).v(0)) <
           math.abs(dirty(200).v(0) - truth(200).v(0)))
  }

  test("CAE-M-lite reconstruction repairs a spike") {
    val (dirty, truth) = spiky(n = 300, spikeAt = 200)
    val out = CaeMLite().clean(dirty)
    assert(Metrics.rmse(out, truth) < Metrics.rmse(dirty, truth))
  }

  test("CAE-M-lite leaves very short series unchanged") {
    val pts = Array.tabulate(5)(i => TimePoint.uni(i.toDouble, i.toDouble))
    val out = CaeMLite().clean(pts)
    assert(pts.indices.forall(i => out(i).sameValues(pts(i))))
  }

  test("all baselines preserve timestamps, length and input immutability") {
    val (dirty, truth) = spiky()
    val snapshot = TimePoint.copyOf(dirty)
    val all = Seq(Screen(sc1), SpeedAcc(sc1, Array(1.0)), LsGreedy(), Ewma(), Rcsws(),
      Htd.captureFromTruth(truth, 5.0), HoloCleanLite(sc1), TranAdLite(), CaeMLite())
    for (b <- all) {
      val out = b.clean(dirty)
      assert(out.length == dirty.length, b.name)
      assert(out.indices.forall(i => out(i).t == dirty(i).t), b.name)
      assert(dirty.indices.forall(i => dirty(i).sameValues(snapshot(i), 0.0)), b.name)
    }
  }
}
