package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness

/** Kernel ns/point of MTCSC-C, A and Uni along the window `w`, against
  * the paper's O(w²Dn) bound for C and A: TAO 100k × 3 with 10% Together
  * errors at w = 5 … 80, and the gpsWalk 200k × 2 series at w = 30.
  * Every cell runs `Warm` untimed rounds, then `Reps` timed ones, round
  * robin over all cells so that each is timed in the same JIT state; a
  * cell reports its median, on fixed seeds. The host's speed drifts, so
  * nothing here asserts a time: the only check is that every rep repeats
  * the first rep's output.
  */
class KernelScalingBench extends AnyFunSuite {

  private val Warm = 2
  private val Reps = 5

  final case class Cell(input: String, w: Double, cleaner: Cleaner, xs: Array[TimePoint]) {
    val ns = scala.collection.mutable.ArrayBuffer.empty[Double]
    private var first: Array[TimePoint] = null

    def run(): Unit = {
      val t0 = System.nanoTime()
      val out = cleaner.clean(xs)
      ns += (System.nanoTime() - t0).toDouble / xs.length
      if (first == null) first = out
      else assert(out.indices.forall(i => java.util.Arrays.equals(out(i).v, first(i).v)),
        s"$input w=$w ${cleaner.name}: run ${ns.size} differs from the first")
    }

    def median: Double = ns.sorted.apply(ns.size / 2)
  }

  /** Least-squares slope of log(ns) over log(w). */
  private def slope(ws: Seq[Double], ns: Seq[Double]): Double = {
    val (x, y) = (ws.map(math.log), ns.map(math.log))
    val (mx, my) = (x.sum / x.size, y.sum / y.size)
    x.zip(y).map { case (a, b) => (a - mx) * (b - my) }.sum / x.map(a => (a - mx) * (a - mx)).sum
  }

  test("w axis: C, A and Uni ns/point on TAO 100k and gpsWalk 200k") {
    def cells(input: String, w: Double, sc: SpeedConstraint, uniScs: Array[SpeedConstraint],
              xs: Array[TimePoint]): Seq[Cell] =
      Seq(MtcscC(sc), MtcscA(sc), MtcscUni(uniScs)).map(Cell(input, w, _, xs))

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
    for (_ <- 0 until Warm; c <- all) c.run()
    all.foreach(_.ns.clear())
    for (_ <- 0 until Reps; c <- all) c.run()

    val rt = Runtime.getRuntime
    println(s"== kernel ns/point over w (${rt.availableProcessors} cores, max heap ${rt.maxMemory >> 20} MB, " +
      s"median of $Reps after $Warm warm rounds) ==")
    println(f"${"input"}%-22s ${"w"}%5s ${"C"}%8s ${"A"}%8s ${"Uni"}%8s")
    for (row <- tao :+ walk)
      println(f"${row.head.input}%-22s ${row.head.w}%5.0f " + row.map(c => f"${c.median}%8.0f").mkString(" "))
    println(f"${"log-log slope in w"}%-22s ${""}%5s " +
      (0 until 3).map(m => f"${slope(ws, tao.map(_(m).median))}%8.2f").mkString(" ") +
      "   (paper bound: 2 for C and A)")
  }
}
