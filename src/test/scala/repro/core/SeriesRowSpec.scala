package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SeriesRowSpec extends AnyFunSuite {

  test("toPoints sorts by timestamp") {
    val rows = Seq(
      SeriesRow(1, 3.0, Seq(3.0)), SeriesRow(1, 1.0, Seq(1.0)), SeriesRow(1, 2.0, Seq(2.0)))
    val pts = SeriesRow.toPoints(rows)
    assert(pts.map(_.t).toSeq == Seq(1.0, 2.0, 3.0))
    assert(pts.map(_.v(0)).toSeq == Seq(1.0, 2.0, 3.0))
  }

  test("toPoints keeps every row's timestamp and values") {
    val pts = Array.tabulate(10)(i => TimePoint(i.toDouble, Array(i * 1.5, -i * 0.5)))
    val back = SeriesRow.toPoints(Reference.rows(42L, pts))
    assert(back.length == 10)
    back.indices.foreach { i =>
      assert(back(i).t == pts(i).t)
      assert(back(i).sameValues(pts(i), 0.0))
    }
  }

  test("TimePoint.copyOf produces independent value arrays") {
    val p = TimePoint(0, Array(1.0, 2.0))
    val q = TimePoint.copyOf(p)
    q.v(0) = 99.0
    assert(p.v(0) == 1.0)
    val arr = Array(p)
    val arr2 = TimePoint.copyOf(arr)
    arr2(0).v(1) = -1.0
    assert(p.v(1) == 2.0)
  }
}
