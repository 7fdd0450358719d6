package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.{Experiments, Harness}

/** Figures 5-7 shape — univariate comparisons on Stock and ILD
  * (temperature): varying error rate and data size.
  */
class UnivariateBench extends AnyFunSuite {

  private val seeds = Seq(1L, 2L, 3L)

  /** The registry without its two multivariate-only entries. */
  private def zoo(cfg: Harness.Config, truth: Array[TimePoint]): Seq[Cleaner] =
    Harness.methods(cfg, truth).filterNot(c => Set("MTCSC-Uni", "RCSWS")(c.name))

  test("Figure 5 shape: our proposals on Stock over error rates") {
    val truth = TimeSeriesGen.stock(12000)
    val sweep = Experiments.errorRateSweep(truth, Seq(0.05, 0.10, 0.15, 0.20, 0.25),
      ErrorInjector.Together, seeds,
      (cfg, _) => Seq(MtcscG(cfg.sc), MtcscL(cfg.sc), MtcscC(cfg.sc)))
    Golden.printed("figure5", Experiments.formatSweep("Figure 5 shape: Stock, MTCSC proposals", "e", sweep))
    for (row <- sweep) {
      val by = row.rows.map(r => r.method -> r).toMap
      assert(by("MTCSC-G").rmse < by("Dirty").rmse, s"G at e=${row.x}")
      assert(by("MTCSC-C").rmse < by("Dirty").rmse, s"C at e=${row.x}")
      // G and C behave similarly and beat L (paper 5.2.1)
      assert(by("MTCSC-C").rmse <= by("MTCSC-L").rmse * 1.1, s"C vs L at e=${row.x}")
      // G modifies the fewest points
      assert(by("MTCSC-G").repairCount <= by("MTCSC-L").repairCount, s"G fixes at e=${row.x}")
      assert(by("MTCSC-G").repairCount <= by("MTCSC-C").repairCount, s"G fixes at e=${row.x}")
      // L is the fastest of the three, G the slowest (linear vs quadratic)
      assert(by("MTCSC-L").millis <= by("MTCSC-G").millis, s"time at e=${row.x}")
    }
  }

  test("Figure 6 shape: all methods on univariate ILD temperature over error rates") {
    val truth = TimeSeriesGen.ild(10000).map(p => TimePoint.uni(p.t, p.v(0)))
    val sweep = Experiments.errorRateSweep(truth, Seq(0.05, 0.10, 0.20, 0.25),
      ErrorInjector.Together, seeds, zoo)
    Golden.printed("figure6", Experiments.formatSweep("Figure 6 shape: ILD temperature, all methods", "e", sweep))
    for (row <- sweep) {
      val by = row.rows.map(r => r.method -> r).toMap
      assert(by("MTCSC-C").rmse < by("Dirty").rmse, s"e=${row.x}")
      assert(by("MTCSC-C").rmse < by("EWMA").rmse, s"vs EWMA at e=${row.x}")
      // minimum-fix repairs far fewer points than minimum-change methods
      assert(by("MTCSC-C").repairCount < by("SCREEN").repairCount * 2, s"e=${row.x}")
    }
    // LsGreedy loses ground at high error rates while MTCSC stays robust
    val lowBy = sweep.head.rows.map(r => r.method -> r).toMap
    val hiBy = sweep.last.rows.map(r => r.method -> r).toMap
    assert(hiBy("MTCSC-C").rmse < hiBy("LsGreedy").rmse,
      "MTCSC-C beats LsGreedy at 25% errors")
    val mtcscGrowth = hiBy("MTCSC-C").rmse / math.max(lowBy("MTCSC-C").rmse, 1e-9)
    val lsGrowth = hiBy("LsGreedy").rmse / math.max(lowBy("LsGreedy").rmse, 1e-9)
    assert(mtcscGrowth < lsGrowth, "MTCSC degrades more slowly than LsGreedy")
  }

  test("Figure 7 shape: scalability over data size on ILD temperature") {
    val sweep = Experiments.dataSizeSweep(
      n => TimeSeriesGen.ild(n).map(p => TimePoint.uni(p.t, p.v(0))),
      Seq(5000, 10000, 20000), 0.05, ErrorInjector.Together, Seq(1L, 2L), zoo)
    Golden.printed("figure7", Experiments.formatSweep("Figure 7 shape: ILD temperature, data size", "n", sweep))
    for (row <- sweep) {
      val by = row.rows.map(r => r.method -> r).toMap
      assert(by("MTCSC-C").rmse < by("Dirty").rmse, s"n=${row.x}")
      // repairs about the injected 5% of points (paper 5.2.3)
      assert(by("MTCSC-C").repairFraction > 0.02 && by("MTCSC-C").repairFraction < 0.15,
        s"n=${row.x} frac=${by("MTCSC-C").repairFraction}")
    }
    // linear methods scale: time grows sublinearly-with-slack in n
    val t0 = sweep.head.rows.find(_.method == "MTCSC-C").get.millis.toDouble
    val t1 = sweep.last.rows.find(_.method == "MTCSC-C").get.millis.toDouble
    assert(t1 < math.max(t0, 1.0) * 40, "MTCSC-C time scales roughly linearly")
  }
}
