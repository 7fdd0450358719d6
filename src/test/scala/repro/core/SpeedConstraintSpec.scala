package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TimeSeriesGen

class SpeedConstraintSpec extends AnyFunSuite {
  private val sc = SpeedConstraint(s = 1.0, w = 2.0)

  test("distance is Euclidean across dimensions (Definition 2.2)") {
    val a = TimePoint(0, Array(1.0, 1.0))
    val b = TimePoint(1, Array(1.8, 1.8))
    assert(math.abs(a.dist(b) - math.sqrt(2 * 0.8 * 0.8)) < 1e-12)
  }

  test("distance of identical points is zero") {
    val a = TimePoint(0, Array(3.0, -2.0, 7.5))
    assert(a.dist(TimePoint(5, Array(3.0, -2.0, 7.5))) == 0.0)
  }

  test("Example 2.4: x1-x2 violate the multivariate constraint") {
    val x1 = TimePoint(1, Array(1.0, 1.0))
    val x2 = TimePoint(2, Array(1.8, 1.8))
    assert(!sc.speedOk(x1, x2)) // speed ~1.13 > 1
  }

  test("Example 2.4: x2 is compatible with x1 per-dimension but not jointly") {
    val x1 = TimePoint(1, Array(1.0))
    val x2 = TimePoint(2, Array(1.8))
    assert(sc.speedOk(x1, x2)) // 0.8 <= 1 in a single dimension
  }

  test("Example 2.4: x2-x3 violate") {
    val x2 = TimePoint(2, Array(1.8, 1.8))
    val x3 = TimePoint(3, Array(2.6, 1.0))
    assert(!sc.speedOk(x2, x3))
  }

  test("satisfy is order-insensitive") {
    val a = TimePoint(0, Array(0.0))
    val b = TimePoint(1, Array(0.5))
    assert(Reference.satisfy(sc, a, b) == Reference.satisfy(sc, b, a))
    assert(sc.speedOk(a, b) == sc.speedOk(b, a))
  }

  test("pairs farther apart than the window are unconstrained under satisfy") {
    val a = TimePoint(0, Array(0.0))
    val b = TimePoint(10, Array(1000.0))
    assert(Reference.satisfy(sc, a, b))
    assert(!sc.speedOk(a, b)) // pure speed test still fails
  }

  test("Example 3.3: x7 vs x4' passes the pure speed test beyond the window") {
    val x4r = TimePoint(4, Array(3.4, 1.0))
    val x7 = TimePoint(7, Array(6.4, 1.0))
    assert(sc.speedOk(x4r, x7)) // d = 3.0 <= s * 3 even though gap > w = 2
  }

  test("zero time gap requires equal values") {
    val a = TimePoint(1, Array(1.0))
    assert(sc.speedOk(a, TimePoint(1, Array(1.0))))
    assert(!sc.speedOk(a, TimePoint(1, Array(1.5))))
  }

  test("boundary pair exactly on the speed limit is accepted") {
    val a = TimePoint(0, Array(0.0))
    val b = TimePoint(1, Array(1.0))
    assert(sc.speedOk(a, b))
  }

  test("satisfiedBy accepts the repaired Example 2.4 series") {
    val repaired = Array(
      TimePoint(1, Array(1.0, 1.0)), TimePoint(2, Array(1.8, 1.0)),
      TimePoint(3, Array(2.6, 1.0)), TimePoint(4, Array(3.55, 1.0)),
      TimePoint(5, Array(4.5, 1.0)), TimePoint(6, Array(5.5, 1.0)),
      TimePoint(7, Array(6.4, 1.0)))
    assert(Reference.satisfiedBy(SpeedConstraint(1.0, 7.0), repaired))
  }

  test("satisfiedBy rejects the dirty Example 2.4 series") {
    val dirty = Array(
      TimePoint(1, Array(1.0, 1.0)), TimePoint(2, Array(1.8, 1.8)),
      TimePoint(3, Array(2.6, 1.0)), TimePoint(4, Array(3.4, 1.0)),
      TimePoint(5, Array(4.5, 1.0)), TimePoint(6, Array(5.5, 1.0)),
      TimePoint(7, Array(6.4, 1.0)))
    assert(!Reference.satisfiedBy(SpeedConstraint(1.0, 7.0), dirty))
  }

  test("capture returns the requested percentile of consecutive speeds") {
    // Speeds are 1, 2, ..., 10 with unit gaps.
    var acc = 0.0
    val pts = (0 to 10).map { i =>
      if (i > 0) acc += i
      TimePoint.uni(i.toDouble, acc)
    }.toArray
    val sc95 = SpeedConstraint.capture(pts, w = 5, percentile = 0.95)
    assert(sc95.s == 10.0) // ceil(0.95*10) = 10th of {1..10}
    val sc50 = SpeedConstraint.capture(pts, w = 5, percentile = 0.5)
    assert(sc50.s == 5.0)
  }

  test("quantile nearest-rank edge cases") {
    assert(SpeedConstraint.quantile(Array(3.0), 0.95) == 3.0)
    assert(SpeedConstraint.quantile(Array(1.0, 2.0), 0.0) == 1.0)
    assert(SpeedConstraint.quantile(Array(1.0, 2.0), 1.0) == 2.0)
  }

  /** The nearest rank of a sorted copy, which `quantile` must return. */
  private def sortedRank(sample: Array[Double], q: Double): Double = {
    val sorted = sample.clone()
    java.util.Arrays.sort(sorted)
    sorted(math.min(sorted.length - 1, math.max(0, math.ceil(q * sorted.length).toInt - 1)))
  }

  test("quantile selects the sort-based nearest rank, bit for bit") {
    val rnd = new java.util.Random(41)
    val qs = Seq(0.0, 0.5, 0.95, 0.99, 1.0)
    val shapes: Seq[(String, Int => Array[Double])] = Seq(
      "uniform" -> (n => Array.fill(n)(rnd.nextDouble() * 10)),
      "heavy ties" -> (n => Array.fill(n)(rnd.nextInt(4).toDouble)),
      "signed zeros" -> (n => Array.fill(n)(rnd.nextInt(3) match { case 0 => -0.0; case 1 => 0.0; case _ => rnd.nextGaussian() })),
      "sorted" -> (n => Array.tabulate(n)(_ * 0.5)),
      "reversed" -> (n => Array.tabulate(n)(i => (n - i) * 0.5)),
      "all equal" -> (n => Array.fill(n)(2.5)),
      "organ pipe" -> (n => Array.tabulate(n)(i => math.min(i, n - i).toDouble)))
    val sizes = (1 to 40) ++ Seq(99, 150, 151, 1000, 4999, 5000) ++ Seq.fill(20)(1 + rnd.nextInt(5000))
    for ((shape, gen) <- shapes; n <- sizes; q <- qs) {
      val sample = gen(n)
      val want = sortedRank(sample, q)
      val permuted = sample.clone()
      val got = SpeedConstraint.quantile(permuted, q)
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
        s"$shape n=$n q=$q: $got, sorted rank $want")
      // It permutes the sample in place: the same multiset comes back.
      java.util.Arrays.sort(permuted)
      java.util.Arrays.sort(sample)
      assert(java.util.Arrays.equals(permuted, sample), s"$shape n=$n q=$q")
    }
  }

  test("select falls back to sorting the remaining range after its round budget") {
    val rnd = new java.util.Random(43)
    for (rounds <- 0 to 4; n <- Seq(1, 2, 3, 17, 150, 1000); _ <- 0 until 5) {
      val sample = Array.fill(n)(rnd.nextInt(50) - 25.0)
      val r = rnd.nextInt(n)
      val sorted = sample.sorted
      assert(SpeedConstraint.select(sample, r, rounds) == sorted(r), s"rounds=$rounds n=$n r=$r")
    }
  }

  test("constraint requires positive s and w") {
    intercept[IllegalArgumentException](SpeedConstraint(0.0, 1.0))
    intercept[IllegalArgumentException](SpeedConstraint(1.0, 0.0))
  }

  test("sameValues tolerance") {
    val a = TimePoint(0, Array(1.0, 2.0))
    assert(a.sameValues(TimePoint(0, Array(1.0 + 1e-12, 2.0))))
    assert(!a.sameValues(TimePoint(0, Array(1.1, 2.0))))
  }

  test("consecutiveSpeeds skips non-increasing timestamps") {
    val pts = Array(TimePoint.uni(0, 0), TimePoint.uni(0, 5), TimePoint.uni(1, 6))
    val sp = SpeedConstraint.consecutiveSpeeds(pts)
    assert(sp.toSeq == Seq(1.0))
  }

  test("repairs stay speed-sound at UTM-northing scale (coordinates around 5e6)") {
    // Eps is absolute, and the spacing of doubles near 5e6 is about 1e-9,
    // so a repair placed on the speed border by interpolation or
    // projection must still pass speedOk there.
    val sc = SpeedConstraint(1.6, 30.0)
    for (seed <- Seq(19L, 20L, 21L)) {
      val dirty = TimeSeriesGen.gpsWalk(seed = seed).dirty.map(p => TimePoint(p.t, p.v.map(_ + 5e6)))
      val outputs = Seq(MtcscL(sc), MtcscC(sc), MtcscA(sc)).map(c => c.name -> c.clean(dirty)) :+
        ("MTCSC-G" -> MtcscG(sc).clean(dirty.take(3000)))
      for ((name, out) <- outputs; i <- 1 until out.length if out(i).t - out(i - 1).t <= sc.w)
        assert(sc.speedOk(out(i - 1), out(i)), s"$name seed $seed pair ${i - 1},$i: ${out(i - 1)} -> ${out(i)}")
    }
  }
}
