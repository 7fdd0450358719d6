package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The MTCSC cleaners reject input outside their contract with an
  * IllegalArgumentException naming the first bad point, instead of
  * returning it unchanged or "repairing" it by accident.
  */
class InputContractSpec extends AnyFunSuite {

  private val sc = SpeedConstraint(1.0, 5.0)
  private val cleaners: Seq[Cleaner] = Seq(
    MtcscG(sc), MtcscL(sc), MtcscC(sc), MtcscA(sc, m = 2), MtcscUni(Array(sc, sc)))

  private def series(ts: Double*): Array[TimePoint] =
    ts.zipWithIndex.map { case (t, i) => TimePoint(t, Array(i * 0.5, 1.0)) }.toArray

  private def rejects(xs: Array[TimePoint], index: Int, detail: String): Unit =
    for (c <- cleaners) {
      val e = intercept[IllegalArgumentException](c.clean(xs))
      assert(e.getMessage.startsWith(s"point $index "), s"${c.name}: ${e.getMessage}")
      assert(e.getMessage.contains(detail), s"${c.name}: ${e.getMessage}")
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
  }

  test("duplicate timestamps stay allowed") {
    val xs = series(0, 1, 1, 2, 2, 2, 3, 4, 5, 6)
    for (c <- cleaners) assert(c.clean(xs).map(_.t).toSeq == xs.map(_.t).toSeq, c.name)
  }

  test("the input is not mutated when it is rejected") {
    val xs = series(0, 1, 2, 1)
    val before = TimePoint.copyOf(xs)
    for (c <- cleaners) intercept[IllegalArgumentException](c.clean(xs))
    assert(xs.indices.forall(i => xs(i).t == before(i).t && xs(i).sameValues(before(i), 0.0)))
  }
}
