package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness

/** Kernel ns/point against the paper's bounds, along two axes, and on short series.
  *
  * - The window `w`, for MTCSC-C, A and Uni against O(w²Dn): TAO 100k × 3
  *   with 10% Together errors at w = 5 … 80, and the gpsWalk 200k × 2
  *   series at w = 30.
  * - The length `n`, for MTCSC-L, C, A and Uni against the exponent 1 of
  *   O(wDn) and O(w²Dn): prefixes of TAO 568k × 3 with 10% Together errors
  *   at w = 10, from 20k points to all of them, with the number of chunks
  *   the batch driver splits each run into ([[Chunked.count]] of its
  *   steps): n − 1 for L, C and A, and D·(n − 1) for Uni, whose
  *   dimensions run one after another.
  * - Short series, for MTCSC-C, A and Uni: the 192 gpsWalk 2k × 2 keys of a
  *   fleet, each cleaned by its own `clean` call, as perfbench's fleet
  *   core loop runs them. Every call starts from a fresh state, so the
  *   per-state set-up cost shows here and not on the long series.
  *
  * Every cell runs `Warm` untimed rounds, then `Reps` timed ones, round
  * robin over the cells of its axis so that each is timed in the same JIT
  * state; a cell reports its median, on fixed seeds. The host's speed
  * drifts, so nothing here asserts a time: the only check is that every
  * rep repeats the first rep's output.
  */
class KernelScalingBench extends AnyFunSuite {
  import KernelScalingBench._

  /** Least-squares slope of log(y) over log(x). */
  private def slope(xs: Seq[Double], ys: Seq[Double]): Double = {
    val (x, y) = (xs.map(math.log), ys.map(math.log))
    val (mx, my) = (x.sum / x.size, y.sum / y.size)
    x.zip(y).map { case (a, b) => (a - mx) * (b - my) }.sum / x.map(a => (a - mx) * (a - mx)).sum
  }

  test("w axis: C, A and Uni ns/point on TAO 100k and gpsWalk 200k") {
    def cells(input: String, w: Double, sc: SpeedConstraint, uniScs: Array[SpeedConstraint],
              xs: Array[TimePoint]): Seq[Cell] =
      Seq(MtcscC(sc), MtcscA(sc), MtcscUni(uniScs)).map(Cell(input, w, _, Seq(xs)))

    val truth = TimeSeriesGen.tao(100000, seed = 1)
    val dirty = ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, seed = 2)
    val ws = Seq(5.0, 10.0, 20.0, 40.0, 80.0)
    val tao = ws.map { w =>
      val cfg = Harness.configFrom(truth, w)
      cells("TAO 100k, 10% errors", w, cfg.sc, cfg.uniScs, dirty)
    }
    val gps = TimeSeriesGen.gpsWalk(200000, seed = 1)
    val walk = cells("gpsWalk 200k", 30, SpeedConstraint(1.6, 30), Harness.configFrom(gps.truth, 30).uniScs, gps.dirty)
    val all = tao.flatten ++ walk
    time(all)

    println(s"== kernel ns/point over w ($host) ==")
    println(f"${"input"}%-22s ${"w"}%5s ${"C"}%8s ${"A"}%8s ${"Uni"}%8s")
    for (row <- tao :+ walk)
      println(f"${row.head.input}%-22s ${row.head.w}%5.0f " + row.map(c => f"${c.median}%8.0f").mkString(" "))
    println(f"${"log-log slope in w"}%-22s ${""}%5s " +
      (0 until 3).map(m => f"${slope(ws, tao.map(_(m).median))}%8.2f").mkString(" ") +
      "   (paper bound: 2 for C and A)")
  }

  test("n axis: L, C, A and Uni ns/point and chunk count on TAO 20k to 568k") {
    val truth = TimeSeriesGen.tao(568000, seed = 1)
    val dirty = ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, seed = 2)
    val cfg = Harness.configFrom(truth, 10)
    val ns = Seq(20000, 50000, 100000, 200000, 400000, 568000)
    val rows = ns.map { n =>
      val xs = dirty.take(n)
      Seq(MtcscL(cfg.sc), MtcscC(cfg.sc), MtcscA(cfg.sc), MtcscUni(cfg.uniScs)).map(Cell(s"TAO ${n / 1000}k", 10, _, Seq(xs)))
    }
    time(rows.flatten)

    println(s"== kernel ns/point over n, w = 10 ($host) ==")
    println(f"${"input"}%-22s ${"chunks"}%6s ${"Uni's"}%6s ${"L"}%8s ${"C"}%8s ${"A"}%8s ${"Uni"}%8s")
    for ((row, n) <- rows.zip(ns))
      println(f"${row.head.input}%-22s ${Chunked.count(n - 1)}%6d ${Chunked.count(cfg.uniScs.length.toLong * (n - 1))}%6d " +
        row.map(c => f"${c.median}%8.0f").mkString(" "))
    println(f"${"log-log slope in n"}%-22s ${""}%6s ${""}%6s " +
      (0 until 4).map(m => f"${slope(ns.map(_.toDouble), rows.zip(ns).map { case (r, n) => r(m).median * n })}%8.2f")
        .mkString(" ") + "   (paper: 1 for every method)")
  }

  test("short series: C, A and Uni ns/point over 192 gpsWalk 2k keys") {
    val walks = (1 to 192).map(i => TimeSeriesGen.gpsWalk(2000, seed = 1000 + 2 * i))
    val sc = SpeedConstraint(1.6, 30)
    val uniScs = Harness.configFrom(walks.head.truth, 30).uniScs
    val row = Seq(MtcscC(sc), MtcscA(sc), MtcscUni(uniScs)).map(Cell("192 x gpsWalk 2k", 30, _, walks.map(_.dirty)))
    time(row)

    println(s"== kernel ns/point over short series, one clean per key ($host) ==")
    println(f"${"input"}%-22s ${"w"}%5s ${"C"}%8s ${"A"}%8s ${"Uni"}%8s")
    println(f"${row.head.input}%-22s ${row.head.w}%5.0f " + row.map(c => f"${c.median}%8.0f").mkString(" "))
  }

  /** Runs every cell `Warm` times untimed, then `Reps` times timed. */
  private def time(cells: Seq[Cell]): Unit = {
    for (_ <- 0 until Warm; c <- cells) c.run()
    cells.foreach(_.ns.clear())
    for (_ <- 0 until Reps; c <- cells) c.run()
  }

  private def host: String = {
    val rt = Runtime.getRuntime
    s"${rt.availableProcessors} cores, max heap ${rt.maxMemory >> 20} MB, median of $Reps after $Warm warm rounds"
  }
}

object KernelScalingBench {
  import org.scalatest.Assertions._

  private val Warm = 2
  private val Reps = 5

  /** One cleaner over one or more series, each cleaned by its own call;
    * ns/point is over all of their points.
    */
  final case class Cell(input: String, w: Double, cleaner: Cleaner, series: Seq[Array[TimePoint]]) {
    val ns = scala.collection.mutable.ArrayBuffer.empty[Double]
    private val points = series.map(_.length).sum
    private var first: Seq[Array[TimePoint]] = null

    def run(): Unit = {
      val t0 = System.nanoTime()
      val out = series.map(cleaner.clean)
      ns += (System.nanoTime() - t0).toDouble / points
      if (first == null) first = out
      else assert(out.zip(first).forall { case (o, f) => o.indices.forall(i => java.util.Arrays.equals(o(i).v, f(i).v)) },
        s"$input w=$w ${cleaner.name}: run ${ns.size} differs from the first")
    }

    def median: Double = ns.sorted.apply(ns.size / 2)
  }
}
