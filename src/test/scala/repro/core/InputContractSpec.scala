package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{HoloCleanLite, Htd, Screen, SpeedAcc}
import repro.eval.Harness

/** Every cleaner rejects input outside the contract with an
  * [[InputContractException]] naming the first bad point, instead of
  * returning it unchanged or "repairing" it by accident. The cleaners are
  * the whole method registry plus MTCSC-A, so a cleaner added to the
  * registry is covered too.
  */
class InputContractSpec extends AnyFunSuite {

  private val sc = SpeedConstraint(1.0, 5.0)

  private def series(ts: Double*): Array[TimePoint] =
    ts.zipWithIndex.map { case (t, i) => TimePoint(t, Array(i * 0.5, 1.0)) }.toArray

  private val cleaners: Seq[Cleaner] =
    Harness.methods(Harness.Config(sc, Array(sc, sc)), series(0, 1, 2, 3)) :+ MtcscA(sc, m = 2)

  private def rejects(xs: Array[TimePoint], index: Int, detail: String): Unit =
    for (c <- cleaners) {
      val e = intercept[InputContractException](c.clean(xs))
      assert(e.index == index && e.series.isEmpty, s"${c.name}: ${e.getMessage}")
      assert(e.getMessage.startsWith(s"point $index (t = ${xs(index).t}): "), s"${c.name}: ${e.getMessage}")
      assert(e.getMessage.contains(detail), s"${c.name}: ${e.getMessage}")
    }

  test("the cleaners are the whole registry and MTCSC-A") {
    assert(cleaners.map(_.name).toSet == Cleaners.table3.map(_.name).toSet + "MTCSC-Uni")
  }

  test("a decreasing timestamp is rejected at its index") {
    rejects(series(0, 1, 2, 1.5, 3, 0), 3, "timestamp decreases")
  }

  test("a non-finite timestamp is rejected") {
    rejects(series(0, 1, Double.NaN, 3), 2, "timestamp is not finite")
    rejects(series(0, 1, 2, Double.PositiveInfinity), 3, "timestamp is not finite")
  }

  test("a non-finite value is rejected") {
    val nan = series(0, 1, 2, 3, 4)
    nan(4).v(1) = Double.NaN
    rejects(nan, 4, "in dimension 1 is not finite")
    val inf = series(0, 1, 2, 3)
    inf(1).v(0) = Double.NegativeInfinity
    rejects(inf, 1, "in dimension 0 is not finite")
    val first = series(0, 1, 2)
    first(0).v(1) = Double.NaN
    rejects(first, 0, "in dimension 1 is not finite")
  }

  test("an inconsistent dimension is rejected") {
    val xs = series(0, 1, 2, 3)
    xs(2) = TimePoint(2, Array(1.0, 1.0, 1.0))
    rejects(xs, 2, "has 3 dimensions, point 0 has 2")
    xs(2) = TimePoint(2, Array(1.0))
    rejects(xs, 2, "has 1 dimensions, point 0 has 2")
  }

  test("duplicate timestamps stay allowed") {
    val xs = series(0, 1, 1, 2, 2, 2, 3, 4, 5, 6)
    for (c <- cleaners) assert(c.clean(xs).map(_.t).toSeq == xs.map(_.t).toSeq, c.name)
  }

  test("the input is not mutated when it is rejected") {
    val xs = series(0, 1, 2, 1)
    val before = TimePoint.copyOf(xs)
    for (c <- cleaners) intercept[InputContractException](c.clean(xs))
    assert(xs.indices.forall(i => xs(i).t == before(i).t && xs(i).sameValues(before(i), 0.0)))
  }

  test("a series id is named once it is known") {
    val e = intercept[InputContractException](InputContractException.inSeries(5L)(MtcscL(sc).clean(series(0, 2, 1))))
    assert(e.getMessage == "series 5, point 2 (t = 1.0): timestamp decreases from 2.0", e.getMessage)
    assert(e.series.contains(5L) && e.index == 2 && e.t == 1.0)
    assert(e.getCause.getMessage == "point 2 (t = 1.0): timestamp decreases from 2.0")
  }

  test("a per-dimension cleaner rejects a constraint count other than D") {
    val xs = series(0, 1, 2, 3)
    for (scs <- Seq(Array(sc), Array(sc, sc, sc))) {
      val wrong = Seq[Cleaner](MtcscUni(scs), Screen(scs), SpeedAcc(scs, Array(1.0, 1.0)),
        SpeedAcc(Array(sc, sc), scs.map(_ => 1.0)), Htd(scs), HoloCleanLite(scs))
      for (c <- wrong) {
        val e = intercept[IllegalArgumentException](c.clean(xs))
        assert(e.getMessage.contains(s"per dimension (2), got ${scs.length}"), s"${c.name}: ${e.getMessage}")
      }
    }
    // An empty series has no D to disagree with.
    assert(Screen(Array(sc)).clean(Array.empty).isEmpty)
  }
}
