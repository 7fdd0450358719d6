package repro.core

import java.util.concurrent.{Callable, ForkJoinPool, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness

/** The chunked batch driver of MTCSC-L, C, A and Uni ([[Chunked]]) against
  * the sequential step loop, its one-chunk run, bit for bit; and the
  * chunked checked copy against the sequential check.
  */
class ChunkedSpec extends AnyFunSuite {
  import KernelDifferentialSpec._

  /** The method's output over `xs` in the chunks between `bounds`. */
  private def chunked(cleaner: Chunked.Online, xs: Array[TimePoint], bounds: Array[Int]): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    cleaner.repair(xs, out, bounds)
    out
  }

  private def sequential(cleaner: Chunked.Online, xs: Array[TimePoint]) = chunked(cleaner, xs, Array(1, xs.length))

  private def online(sc: SpeedConstraint, d: Int): Seq[Chunked.Online] = Seq(
    MtcscL(sc), MtcscC(sc), MtcscA(sc),
    MtcscA(sc, m = 20, tau = 0.1, beta = 0.75), MtcscA(sc, m = 20, tau = 0.1, beta = 1.0),
    MtcscUni(Array.tabulate(d)(l => SpeedConstraint(sc.s * (0.5 + 0.25 * l), sc.w))))

  /** Bounds 1 = b0 < … < bc = n of up to 8 chunks, from uniform cuts, cuts
    * next to another cut (a chunk of one step) and cuts inside runs of
    * equal timestamps.
    */
  private def randomBounds(xs: Array[TimePoint], r: java.util.Random): Array[Int] = {
    val n = xs.length
    val chunks = 1 + r.nextInt(math.min(8, n - 1))
    val dups = (2 until n).filter(i => xs(i).t == xs(i - 1).t)
    val cuts = scala.collection.mutable.SortedSet.empty[Int]
    while (cuts.size < chunks - 1) r.nextInt(3) match {
      case 0 if dups.nonEmpty => cuts += dups(r.nextInt(dups.size))
      case 1 if cuts.nonEmpty =>
        val next = cuts.toSeq(r.nextInt(cuts.size)) + (if (r.nextBoolean()) 1 else -1)
        if (next >= 2 && next < n) cuts += next
      case _ => cuts += 2 + r.nextInt(n - 2)
    }
    (1 +: cuts.toSeq :+ n).toArray
  }

  test("random chunk bounds give the sequential step loop's output for L, C, A and Uni") {
    var (single, inDup, eight) = (0, 0, 0)
    forAllSampled(caseGen, 600) { c =>
      val r = new java.util.Random(c.seed)
      for (cleaner <- online(c.sc, c.xs(0).dim)) {
        val bounds = randomBounds(c.xs, r)
        if (bounds.indices.tail.exists(i => bounds(i) - bounds(i - 1) == 1)) single += 1
        if (bounds.indices.exists(i => bounds(i) < c.xs.length && c.xs(bounds(i)).t == c.xs(bounds(i) - 1).t)) inDup += 1
        if (bounds.length == 9) eight += 1
        assertSame(chunked(cleaner, c.xs, bounds), sequential(cleaner, c.xs), s"$c $cleaner bounds=${bounds.mkString(",")}")
      }
    }
    assert(single > 300 && inDup > 300 && eight > 100, s"one-step chunks $single, cuts in a tie run $inDup, 8 chunks $eight")
  }

  test("random chunk bounds give the sequential output on TAO and gpsWalk, where A recaptures often") {
    val truth = TimeSeriesGen.tao(20000, seed = 4)
    val cfg = Harness.configFrom(truth, w = 10)
    val tao = ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, seed = 5)
    val gps = TimeSeriesGen.gpsWalk(11000, seed = 29).dirty
    val r = new java.util.Random(3)
    for ((xs, sc) <- Seq(tao -> cfg.sc, gps -> SpeedConstraint(1.6, 30.0)); cleaner <- online(sc, xs(0).dim)) {
      val want = sequential(cleaner, xs)
      for (_ <- 1 to 3) {
        val bounds = randomBounds(xs, r)
        assertSame(chunked(cleaner, xs, bounds), want, s"$cleaner bounds=${bounds.mkString(",")}")
      }
    }
  }

  test("Uni chunks by its steps, D·(n − 1), and its default run equals the reference on ECG 2k × 32") {
    val truth = TimeSeriesGen.ecg(2000, dims = 32, seed = 8)
    val cfg = Harness.configFrom(truth, w = 10)
    val dirty = ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, seed = 9)
    val uni = MtcscUni(cfg.uniScs)
    // 32 · 1,999 steps make three chunks of them on as many cores; C's 1,999 make one.
    assert(Chunked.bounds(1, dirty.length, uni.steps(dirty)).length - 1 ==
      math.min(3, Runtime.getRuntime.availableProcessors))
    assert(Chunked.bounds(1, dirty.length, MtcscC(cfg.sc).steps(dirty)).length == 2)
    assertSame(uni.clean(dirty), Reference.cleanUni(dirty, cfg.uniScs), "Uni ECG 2k x 32")
  }

  test("a run that never meets its guess is re-run whole, chunk after chunk") {
    // A ramp at speed 2 under s = 1: MTCSC-L finds no compatible successor
    // and copies the previous repair at every step, so the output stays at
    // x(0), while a chunk guessed from x(lo-1) stays at x(lo-1).
    def ramp(n: Int) = Array.tabulate(n)(i => TimePoint(i, Array(2.0 * i, -2.0 * i)))
    val sc = SpeedConstraint(1, 2)
    val xs = ramp(1000)
    for (bounds <- Seq(Array(1, 250, 500, 750, 1000), Array(1, 2, 3, 998, 999, 1000))) {
      val out = chunked(MtcscL(sc), xs, bounds)
      assertSame(out, sequential(MtcscL(sc), xs), bounds.mkString(","))
      assert(out.forall(_.v.forall(_ == 0.0)))
    }
    assert(MtcscL(sc).clean(ramp(100000)).forall(_.v.forall(_ == 0.0)))
  }

  test("empty, one-point and zero-dimension series come back as copies") {
    val sc = SpeedConstraint(1, 2)
    for (xs <- Seq(Array.empty[TimePoint], Array(TimePoint(0, Array(5.0, 6.0))), Array.fill(3)(TimePoint(0, Array.empty[Double])));
         cleaner <- online(sc, xs.headOption.fold(2)(_.dim)))
      assertSame(cleaner.clean(xs), xs, s"$cleaner n=${xs.length}")
  }

  test("long-series clean calls made at once from common-pool tasks finish and equal the sequential run") {
    val truth = TimeSeriesGen.tao(100000, seed = 6)
    val cfg = Harness.configFrom(truth, w = 10)
    val dirty = ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, seed = 7)
    val cleaners = Seq(MtcscL(cfg.sc), MtcscC(cfg.sc), MtcscA(cfg.sc), MtcscUni(cfg.uniScs))
    val want = cleaners.map(sequential(_, dirty))
    val tasks = (0 until 8).map(i => ForkJoinPool.commonPool.submit(new Callable[Array[TimePoint]] {
      def call(): Array[TimePoint] = cleaners(i % 4).clean(dirty)
    }))
    for ((task, i) <- tasks.zipWithIndex) assertSame(task.get(120, TimeUnit.SECONDS), want(i % 4), cleaners(i % 4).name)
  }

  // ----------------------------------------------------------- checked copy

  private val Chunks = Array(0, 1000, 2000, 3000, 4000)

  private def series = Array.tabulate(4000)(i => TimePoint(i * 0.5, Array(i.toDouble, -i.toDouble)))

  /** What the check of `xs` in `bounds` throws. */
  private def rejection(xs: Array[TimePoint], bounds: Array[Int]): (Long, Long, String, Option[Long]) = {
    val e = intercept[InputContractException](TimePoint.check(xs, new Array[TimePoint](xs.length), bounds))
    (e.index, java.lang.Double.doubleToLongBits(e.t), e.reason, e.series)
  }

  private def assertRejectsAt(xs: Array[TimePoint], index: Int): Unit = {
    val sequential = rejection(xs, Array(0, xs.length))
    assert(sequential._1 == index)
    assert(rejection(xs, Chunks) == sequential)
    assert(intercept[InputContractException](TimePoint.checkedCopyOf(xs)).getMessage ==
      intercept[InputContractException](TimePoint.check(xs, null, Array(0, xs.length))).getMessage)
  }

  test("the chunked checked copy rejects a bad point in any chunk as the sequential check does") {
    val bad: Seq[(Int, TimePoint => TimePoint)] = Seq(
      10 -> (p => p.copy(t = Double.NaN)),
      1500 -> (p => p.copy(v = Array(p.v(0), Double.PositiveInfinity))),
      2999 -> (p => p.copy(v = Array(p.v(0)))),
      3999 -> (p => p.copy(t = p.t - 7)))
    for ((i, spoil) <- bad) {
      val xs = series
      xs(i) = spoil(xs(i))
      assertRejectsAt(xs, i)
    }
  }

  test("the chunked checked copy rejects a timestamp that decreases across a chunk boundary") {
    val xs = series
    xs(2000) = xs(2000).copy(t = xs(1999).t - 0.25)
    assertRejectsAt(xs, 2000)
  }

  test("the chunked checked copy reports the lower of bad points in two chunks") {
    val xs = series
    xs(3500) = xs(3500).copy(t = Double.PositiveInfinity)
    xs(1200) = xs(1200).copy(v = Array(Double.NaN, 0.0))
    assertRejectsAt(xs, 1200)
    val long = Array.tabulate(100000)(i => TimePoint(i, Array(0.0)))
    long(90000) = TimePoint(0, Array(0.0))
    long(40000) = TimePoint(40000, Array(Double.NaN))
    val e = intercept[InputContractException](MtcscL(SpeedConstraint(1, 2)).clean(long))
    assert(e.index == 40000 && e.reason == "value NaN in dimension 0 is not finite")
  }

  test("the chunked checked copy equals the input point for point") {
    val xs = series
    val out = new Array[TimePoint](xs.length)
    TimePoint.check(xs, out, Chunks)
    assertSame(out, xs, "copy")
    assert(out.indices.forall(i => !(out(i).v eq xs(i).v)))
  }
}
