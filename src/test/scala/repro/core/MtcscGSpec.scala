package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MtcscGSpec extends AnyFunSuite {

  /** The running example series (Example 2.4): 7 points, D = 2. */
  private def example24: Array[TimePoint] = Array(
    TimePoint(1, Array(1.0, 1.0)), TimePoint(2, Array(1.8, 1.8)),
    TimePoint(3, Array(2.6, 1.0)), TimePoint(4, Array(3.4, 1.0)),
    TimePoint(5, Array(4.5, 1.0)), TimePoint(6, Array(5.5, 1.0)),
    TimePoint(7, Array(6.4, 1.0)))

  private val sc7 = SpeedConstraint(1.0, 7.0)

  test("Example 2.6: FixList is {x2, x4} (0-based {1, 3})") {
    assert(MtcscG.fixList(example24, sc7).toSeq == Seq(1, 3))
  }

  test("Example 2.6: repaired values are (1.8, 1) and (3.55, 1)") {
    val out = MtcscG(sc7).clean(example24)
    assert(out(1).v.toSeq == Seq(1.8, 1.0))
    assert(math.abs(out(3).v(0) - 3.55) < 1e-9)
    assert(out(3).v(1) == 1.0)
  }

  test("Example 2.6: repair number is 2") {
    val out = MtcscG(sc7).clean(example24)
    assert(example24.indices.count(i => !out(i).sameValues(example24(i))) == 2)
  }

  test("clean points are untouched") {
    val out = MtcscG(sc7).clean(example24)
    for (i <- Seq(0, 2, 4, 5, 6)) assert(out(i).sameValues(example24(i)))
  }

  test("global repair satisfies the constraint") {
    val out = MtcscG(sc7).clean(example24)
    assert(Reference.satisfiedBy(sc7, out))
  }

  test("input is not mutated") {
    val snapshot = TimePoint.copyOf(example24)
    MtcscG(sc7).clean(example24)
    val again = example24
    assert(snapshot.indices.forall(i => snapshot(i).sameValues(again(i))))
  }

  test("clean series passes through unchanged") {
    val clean = Array.tabulate(20)(i => TimePoint.uni(i.toDouble, i * 0.5))
    val sc = SpeedConstraint(1.0, 5.0)
    val out = MtcscG(sc).clean(clean)
    assert(clean.indices.forall(i => out(i).sameValues(clean(i))))
  }

  test("empty and single-point series") {
    val sc = SpeedConstraint(1.0, 5.0)
    assert(MtcscG(sc).clean(Array.empty[TimePoint]).isEmpty)
    val one = Array(TimePoint.uni(0, 42))
    assert(MtcscG(sc).clean(one)(0).sameValues(one(0)))
  }

  test("single spike is interpolated between its neighbours") {
    val pts = Array.tabulate(9)(i => TimePoint.uni(i.toDouble, if (i == 4) 100.0 else i * 0.2))
    val sc = SpeedConstraint(1.0, 4.0)
    val out = MtcscG(sc).clean(pts)
    assert(math.abs(out(4).v(0) - 0.8) < 1e-9) // midpoint of 0.6 and 1.0
  }

  test("leading dirty point is repaired from the succeeding clean point") {
    val pts = Array(TimePoint.uni(0, 500.0)) ++
      Array.tabulate(9)(i => TimePoint.uni((i + 1).toDouble, i * 0.1))
    val sc = SpeedConstraint(1.0, 4.0)
    val fixes = MtcscG.fixList(pts, sc)
    assert(fixes.toSeq == Seq(0))
    val out = MtcscG(sc).clean(pts)
    assert(out(0).v(0) == 0.0) // copied from the first clean point
  }

  test("trailing dirty point is repaired from the preceding clean point") {
    val pts = Array.tabulate(9)(i => TimePoint.uni(i.toDouble, i * 0.1)) :+
      TimePoint.uni(9, -400.0)
    val sc = SpeedConstraint(1.0, 4.0)
    val out = MtcscG(sc).clean(pts)
    assert(out(9).v(0) == 0.8)
  }

  test("fix list is independent of the window (pure speed semantics)") {
    for (w <- Seq(1.0, 2.0, 3.0, 7.0)) {
      val sc = SpeedConstraint(1.0, w)
      assert(MtcscG.fixList(example24, sc).toSeq == Seq(1, 3), s"w=$w")
    }
  }

  test("fix count matches the exact solver (minimum fix) on random small series") {
    val rnd = new java.util.Random(7)
    for (trial <- 0 until 25) {
      val n = 4 + rnd.nextInt(9)
      val pts = Array.tabulate(n)(i =>
        TimePoint(i.toDouble, Array(rnd.nextDouble() * 3, rnd.nextDouble() * 3)))
      val sc = SpeedConstraint(0.4 + rnd.nextDouble(), 2 + rnd.nextInt(4).toDouble)
      val dp = MtcscG.fixList(pts, sc).length
      val exact = ExactSolver.minFixCount(pts, sc)
      assert(dp == exact, s"trial=$trial dp=$dp exact=$exact")
    }
  }

  test("univariate series (D = 1) is handled") {
    val pts = Array.tabulate(12)(i => TimePoint.uni(i.toDouble, if (i == 6) 50.0 else i * 0.3))
    val out = MtcscG(SpeedConstraint(1.0, 3.0)).clean(pts)
    assert(math.abs(out(6).v(0) - 1.8) < 1e-9)
  }

  test("repair with empty fix list returns a copy") {
    val pts = Array.tabulate(5)(i => TimePoint.uni(i.toDouble, 0.0))
    val sc = SpeedConstraint(1.0, 3.0)
    assert(MtcscG.fixList(pts, sc).isEmpty)
    val out = MtcscG(sc).clean(pts)
    assert(out.indices.forall(i => out(i).sameValues(pts(i))))
    assert(!(out(0) eq pts(0)))
  }
}
