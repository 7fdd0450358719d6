package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MtcscCSpec extends AnyFunSuite {

  /** Example 3.5 series: 8 points, t = 0..7, s = 1, w = 6. */
  private def example35: Array[TimePoint] = Array(
    TimePoint(0, Array(1.0, 1.0)), TimePoint(1, Array(1.8, 1.8)),
    TimePoint(2, Array(2.6, 2.0)), TimePoint(3, Array(3.5, 1.0)),
    TimePoint(4, Array(4.5, 1.0)), TimePoint(5, Array(5.5, 0.5)),
    TimePoint(6, Array(6.5, 1.0)), TimePoint(7, Array(7.5, 1.0)))

  private val sc = SpeedConstraint(1.0, 6.0)

  test("Example 3.5: BuildCluster forms {x2}, {x3,x4,x6,x7}, {x5}") {
    val p = TimePoint(0, Array(1.0, 1.0)) // x'_0
    val window = example35.slice(2, 8)    // x2..x7 (succeeding points of key x1)
    val clusters = Reference.buildClusters(p, window, sc)
    // relative indices into the window: x2 -> 0, x3 -> 1, ..., x7 -> 5
    assert(clusters.map(_.toSet).toSet == Set(Set(0), Set(1, 2, 4, 5), Set(3)))
  }

  test("Example 3.5: largest cluster head is x3") {
    val p = TimePoint(0, Array(1.0, 1.0))
    val window = example35.slice(2, 8)
    val clusters = Reference.buildClusters(p, window, sc)
    assert(clusters.maxBy(_.size).head == 1) // x3
    // the array-backed kernel returns the same head as an index into the series
    assert(new MtcscC.Run(sc).largestClusterHead(p, example35, 2, 8) == 3)
  }

  test("Example 3.5: final repair is x1'=(1.83,1), x2'=(2.66,1), x5'=(5.5,1)") {
    val out = MtcscC(sc).clean(example35)
    assert(math.abs(out(1).v(0) - (1.0 + 2.5 / 3)) < 1e-9) // ~1.833
    assert(out(1).v(1) == 1.0)
    assert(math.abs(out(2).v(0) - (out(1).v(0) + (3.5 - out(1).v(0)) / 2)) < 1e-9) // ~2.666
    assert(out(2).v(1) == 1.0)
    assert(out(5).v.toSeq == Seq(5.5, 1.0))
  }

  test("Example 3.5: exactly three points are repaired") {
    val out = MtcscC(sc).clean(example35)
    val changed = example35.indices.filter(i => !out(i).sameValues(example35(i), 1e-7))
    assert(changed == Seq(1, 2, 5))
  }

  test("Example 3.5: small error x5 is repaired even though the speed constraint holds") {
    // x5 = (5.5, 0.5) satisfies the constraint with its repaired neighbours,
    // but lies off the trend — MTCSC-C still fixes it (the MTCSC-L gap).
    val out = MtcscC(sc).clean(example35)
    assert(!out(5).sameValues(example35(5)))
    assert(out(5).v.toSeq == Seq(5.5, 1.0)) // pulled back to the trend line
  }

  test("soundness: consecutive pairs of the repair pass the speed test") {
    val out = MtcscC(sc).clean(example35)
    for (i <- 1 until out.length) assert(sc.speedOk(out(i - 1), out(i)), s"pair $i")
  }

  test("clean series passes through unchanged") {
    val clean = Array.tabulate(60)(i => TimePoint(i.toDouble, Array(i * 0.4, 5 + math.cos(i * 0.05))))
    val scl = SpeedConstraint(1.0, 5.0)
    val out = MtcscC(scl).clean(clean)
    assert(clean.indices.forall(i => out(i).sameValues(clean(i))))
  }

  test("empty window (trailing points) projects onto the previous repair's speed ball") {
    val pts = Array(TimePoint.uni(0, 0.0), TimePoint.uni(1, 30.0))
    val out = MtcscC(SpeedConstraint(1.0, 3.0)).clean(pts)
    // minimum-change feasible repair: capped at s * dt toward the observation
    assert(math.abs(out(1).v(0) - 1.0) < 1e-9)
    assert(SpeedConstraint(1.0, 3.0).speedOk(out(0), out(1)))
  }

  test("empty cluster set with satisfied key point keeps the observation") {
    val pts = Array(TimePoint.uni(0, 0.0), TimePoint.uni(1, 0.5))
    val out = MtcscC(SpeedConstraint(1.0, 3.0)).clean(pts)
    assert(out(1).v(0) == 0.5)
  }

  test("cluster heads anchored on p only (points before first compatible are omitted)") {
    val p = TimePoint.uni(0, 0.0)
    // w[0] incompatible with p, w[1] compatible.
    val window = Array(TimePoint.uni(1, 100.0), TimePoint.uni(2, 1.0))
    val clusters = Reference.buildClusters(p, window, SpeedConstraint(1.0, 6.0))
    assert(clusters.map(_.toSet) == Seq(Set(1)))
  }

  test("no cluster when nothing in the window is compatible with p") {
    val p = TimePoint.uni(0, 0.0)
    val window = Array(TimePoint.uni(1, 100.0), TimePoint.uni(2, 100.0))
    assert(Reference.buildClusters(p, window, SpeedConstraint(1.0, 6.0)).isEmpty)
  }

  test("empty window yields no clusters") {
    assert(Reference.buildClusters(TimePoint.uni(0, 0), Array.empty, sc).isEmpty)
  }

  test("compatible-with-omitted point stays omitted (Action 1 on a dirty j)") {
    val p = TimePoint.uni(0, 0.0)
    // w0 compatible with p (head); w1 dirty (incompatible with w0, incompatible with p);
    // w2 compatible with w1 (joins nothing — omitted), incompatible with w0.
    val window = Array(
      TimePoint.uni(1, 0.5),
      TimePoint.uni(2, 50.0),
      TimePoint.uni(3, 50.5))
    val clusters = Reference.buildClusters(p, window, SpeedConstraint(1.0, 9.0))
    assert(clusters.map(_.toSet) == Seq(Set(0)))
  }

  test("Action 2 with a member j (f[j] > 0) opens a new cluster") {
    val p = TimePoint.uni(0, 0.0)
    // w0 head, w1 joins w0, w2 incompatible with member w1 but with p fine
    val window = Array(
      TimePoint.uni(1, 0.5), TimePoint.uni(2, 1.0), TimePoint.uni(3, 2.9))
    val clusters = Reference.buildClusters(p, window, SpeedConstraint(1.0, 9.0))
    assert(clusters.map(_.toSet) == Seq(Set(0, 1), Set(2)))
  }

  test("Action 3 case 2: a clean point looks past an omitted point to join the clean cluster") {
    val p = TimePoint.uni(0, 0.0)
    // w0 head (clean), w1 dirty (omitted: incompatible with w0 and with
    // p), w2 incompatible with w1, looks back past it and joins w0.
    val window = Array(
      TimePoint.uni(1, 0.5), TimePoint.uni(2, 2.1), TimePoint.uni(3, 0.9))
    val sc = SpeedConstraint(1.0, 9.0)
    val clusters = Reference.buildClusters(p, window, sc)
    assert(clusters.map(_.toSet).contains(Set(0, 2)), s"got $clusters")
  }

  test("cluster heads and members keep window order inside each cluster") {
    val p = TimePoint.uni(0, 0.0)
    val window = Array.tabulate(6)(i => TimePoint.uni(i + 1.0, (i + 1) * 0.5))
    val clusters = Reference.buildClusters(p, window, SpeedConstraint(1.0, 9.0))
    assert(clusters.size == 1)
    assert(clusters.head == (0 until 6))
  }

  test("consecutive error run: majority cluster steers repairs back to the trend") {
    val base = Array.tabulate(40)(i => TimePoint(i.toDouble, Array(i * 0.3, 0.0)))
    val dirty = TimePoint.copyOf(base)
    for (i <- 12 until 18) { dirty(i).v(0) = 30.0; dirty(i).v(1) = 10.0 }
    val scl = SpeedConstraint(0.6, 10.0)
    val out = MtcscC(scl).clean(dirty)
    for (i <- 12 until 18)
      assert(out(i).dist(base(i)) < dirty(i).dist(base(i)), s"point $i should improve")
  }

  test("MTCSC-C repair count is at least the global optimum") {
    val rnd = new java.util.Random(21)
    for (_ <- 0 until 10) {
      val pts = Array.tabulate(40)(i => TimePoint.uni(i.toDouble,
        if (rnd.nextDouble() < 0.15) rnd.nextDouble() * 30 else i * 0.2))
      val scl = SpeedConstraint(0.8, 5.0)
      val out = MtcscC(scl).clean(pts)
      val cFix = pts.indices.count(i => !out(i).sameValues(pts(i), 1e-7))
      assert(MtcscG.fixList(pts, scl).length <= cFix)
    }
  }

  // --- Deciding a window from the raw pairs' verdicts (DESIGN §4c item 2) ---

  /** Three points at 0 (t = 0, 1, 2), the key point k = 3 far off them at
    * 100, then its window of `w` = one time unit per point (s = 1): `lead`
    * points at 50, compatible with nothing; `a` points at 0, the first
    * cluster; `b` points at 1.5, which no 0 one time unit before admits but
    * out(2) does, so they form a second cluster; and three trailing points
    * at 0. `dup` adds a point at the timestamp of the first cluster's first
    * point: at 0 it joins that cluster (a dt = 0 pair that holds), at 1.5 it
    * opens a cluster of its own (a dt = 0 pair that breaks).
    */
  private def twoClusters(lead: Int, a: Int, b: Int, dup: Option[Double]): (Array[TimePoint], SpeedConstraint) = {
    val values = Seq(0.0, 0.0, 0.0, 100.0) ++ Seq.fill(lead)(50.0) ++ Seq.fill(a)(0.0) ++ Seq.fill(b)(1.5) ++ Seq.fill(3)(0.0)
    val pts = values.zipWithIndex.map { case (x, t) => TimePoint.uni(t.toDouble, x) }
    val at = 4 + lead
    val xs = dup.fold(pts)(d => pts.take(at + 1) ++ Seq(TimePoint.uni(at.toDouble, d)) ++ pts.drop(at + 1))
    (xs.toArray, SpeedConstraint(1.0, (lead + a + b).toDouble))
  }

  private val layouts = for {
    lead <- Seq(0, 1)
    (a, b) <- Seq((2, 7), (3, 6), (4, 5), (5, 4), (4, 4), (5, 5), (6, 3), (1, 1), (1, 0))
    dup <- Seq(None, Some(0.0), Some(1.5))
  } yield (lead, a, b, dup)

  test("first broken pair before, at and after the half-window bound: the reference's head, ties to the first") {
    val wins = for ((lead, a, b, dup) <- layouts) yield {
      val clue = s"lead=$lead a=$a b=$b dup=$dup"
      val (xs, sc) = twoClusters(lead, a, b, dup)
      val out = MtcscC(sc).clean(xs)
      KernelDifferentialSpec.assertSame(out, Reference.cleanC(xs, sc), clue)
      // out(3) is interpolated toward the head: 0 when the first cluster
      // wins, off 0 when the second one does.
      val p = out(2)
      val end = xs.indexWhere(_.t > xs(3).t + sc.w)
      val clusters = Reference.buildClusters(p, xs.slice(4, end), sc)
      val firstWins = clusters.head.size >= clusters.tail.map(_.size).maxOption.getOrElse(0)
      assert((out(3).v(0) == 0.0) == firstWins, s"$clue: out(3) = ${out(3)}")
      assert(new MtcscC.Run(sc).largestClusterHead(p, xs, 4, end) == 4 + clusters.maxBy(_.size).head, clue)
      if (dup.isEmpty) assert(firstWins == (a >= b), clue)
      firstWins
    }
    assert(wins.count(identity) > 10 && wins.count(!_) > 10)
  }

  test("a projected point's repair, not its raw value, decides the next step") {
    // Step 1 projects x1 onto out(0)'s speed ball (1.0); x1 and x2 agree,
    // but out(1) and x2 do not, so step 2 projects too.
    val xs = Array(0.0, 10, 10, 10, 10, 10, 10).zipWithIndex.map { case (x, t) => TimePoint.uni(t.toDouble, x) }
    val sc = SpeedConstraint(1.0, 3.0)
    val out = MtcscC(sc).clean(xs)
    KernelDifferentialSpec.assertSame(out, Reference.cleanC(xs, sc), "level shift")
    assert(out(1).v(0) == 1.0 && out(2).v(0) == 2.0, out.toSeq)
  }

  test("C resumed with closed = false tests the key point's own raw pair") {
    // Step 1's window is empty (x2 is 4 after x1, w = 2) and keeps x1. Step
    // 2 first runs with x3 not yet arrived, then again once x4 closes its
    // window. The pair (x1, x2) breaks and x3 is incompatible with out(1),
    // so x2 is projected.
    val xs = Array((0.0, 0.0), (1.0, 0.0), (5.0, 10.0), (6.0, 10.0), (10.0, 10.0)).map { case (t, x) => TimePoint.uni(t, x) }
    val sc = SpeedConstraint(1.0, 2.0)
    val out = TimePoint.copyOf(xs)
    val run = new MtcscC.Run(sc)
    assert(run.step(out, xs, 1, 3, closed = false))
    assert(!run.step(out, xs, 2, 3, closed = false))
    for (k <- 2 until xs.length) assert(run.step(out, xs, k, xs.length, closed = true))
    KernelDifferentialSpec.assertSame(out, Reference.cleanC(xs, sc), "resumed")
    assert(out(2).v(0) == 4.0, out.toSeq)
  }
}
