package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MtcscUniSpec extends AnyFunSuite {

  test("dimensions are cleaned independently") {
    // error only in dim 0; dim 1 is clean and must stay identical
    val pts = Array.tabulate(30)(i => TimePoint(i.toDouble,
      Array(if (i == 15) 90.0 else i * 0.2, math.sin(i * 0.05))))
    val scs = Array(SpeedConstraint(0.5, 5.0), SpeedConstraint(0.5, 5.0))
    val out = MtcscUni(scs).clean(pts)
    assert(out(15).v(0) < 10.0, "dim-0 spike repaired")
    assert(pts.indices.forall(i => out(i).v(1) == pts(i).v(1)), "dim 1 untouched")
  }

  test("matches MTCSC-C on univariate input") {
    val pts = Array.tabulate(40)(i => TimePoint.uni(i.toDouble,
      if (i % 13 == 7) 50.0 else i * 0.4))
    val sc = SpeedConstraint(1.0, 5.0)
    val uni = MtcscUni(Array(sc)).clean(pts)
    val c = MtcscC(sc).clean(pts)
    assert(pts.indices.forall(i => uni(i).sameValues(c(i))))
  }

  test("capture builds one constraint per dimension") {
    val pts = Array.tabulate(50)(i => TimePoint(i.toDouble, Array(i * 1.0, i * 10.0)))
    val m = MtcscUni(repro.baselines.PerDim.captureSpeeds(pts, w = 5))
    assert(m.scs.length == 2)
    assert(m.scs(1).s > m.scs(0).s * 5) // dim 1 moves 10x faster
  }

  test("dimension count mismatch is rejected") {
    val pts = Array(TimePoint(0, Array(1.0, 2.0)))
    intercept[IllegalArgumentException] {
      MtcscUni(Array(SpeedConstraint(1, 1))).clean(pts)
    }
  }

  test("a joint-violation-only error is invisible per dimension (Example 2.4 motivation)") {
    // Each dimension changes by 0.8/unit (allowed univariately with s=1),
    // jointly 1.13 > 1: Uni keeps it, multivariate MTCSC-C repairs it.
    val pts = Array(
      TimePoint(1, Array(1.0, 1.0)), TimePoint(2, Array(1.8, 1.8)),
      TimePoint(3, Array(2.6, 1.0)), TimePoint(4, Array(3.4, 1.0)),
      TimePoint(5, Array(4.5, 1.0)))
    val uniOut = MtcscUni(Array(SpeedConstraint(1.0, 3.0), SpeedConstraint(1.0, 3.0))).clean(pts)
    assert(uniOut(1).v.toSeq == Seq(1.8, 1.8), "per-dimension cleaning misses it")
    val mOut = MtcscC(SpeedConstraint(1.0, 3.0)).clean(pts)
    assert(!mOut(1).sameValues(pts(1)), "joint constraint catches it")
  }
}
