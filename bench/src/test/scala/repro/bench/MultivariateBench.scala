package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.{Experiments, Harness}

/** Figures 8-11 + 13 shape — multivariate comparisons: error patterns
  * (separate/together), error rates, data sizes, dimensions.
  */
class MultivariateBench extends AnyFunSuite {

  private val seeds = Seq(1L, 2L)

  /** The registry's methods with these names, in registry order. */
  private def zoo(names: String*)(cfg: Harness.Config, truth: Array[TimePoint]): Seq[Cleaner] =
    Harness.methods(cfg, truth).filter(c => names.contains(c.name))

  test("Figures 8/9 shape: ILD error-rate sweep, together vs separate") {
    val truth = TimeSeriesGen.ild(20000)
    for (pattern <- Seq(ErrorInjector.Together, ErrorInjector.Separate)) {
      val sweep = Experiments.errorRateSweep(truth, Seq(0.05, 0.10, 0.20), pattern, seeds, Harness.methods)
      Golden.printed(s"figures8-9-ild-$pattern", Experiments.formatSweep(s"ILD error-rate sweep ($pattern)", "e", sweep))
      for (row <- sweep) {
        val by = row.rows.map(r => r.method -> r).toMap
        assert(by("MTCSC-C").rmse < by("Dirty").rmse, s"$pattern e=${row.x}")
        assert(by("MTCSC-Uni").rmse < by("Dirty").rmse, s"$pattern e=${row.x}")
        assert(by("MTCSC-C").rmse < by("EWMA").rmse, s"$pattern e=${row.x}")
      }
      val by10 = sweep(1).rows.map(r => r.method -> r).toMap
      if (pattern == ErrorInjector.Together) {
        // under "together" the joint constraint wins (paper 5.3.3)
        assert(by10("MTCSC-C").rmse < by10("SCREEN").rmse, "together: MTCSC beats SCREEN")
        assert(by10("MTCSC-C").rmse < by10("LsGreedy").rmse, "together: MTCSC beats LsGreedy")
      } else {
        // under "separate" the per-dimension variant is competitive
        assert(by10("MTCSC-Uni").rmse < by10("Dirty").rmse)
      }
    }
  }

  test("Figure 9(a) shape: high-dimensional ECG, together errors") {
    val truth = TimeSeriesGen.ecg(10000, dims = 16)
    val sweep = Experiments.errorRateSweep(truth, Seq(0.10), ErrorInjector.Together, seeds,
      zoo("MTCSC-G", "MTCSC-L", "MTCSC-C", "MTCSC-Uni", "SCREEN", "SpeedAcc", "LsGreedy", "EWMA"))
    Golden.printed("figure9a-ecg", Experiments.formatSweep("ECG-16d, together, e=10%", "e", sweep))
    val by = sweep.head.rows.map(r => r.method -> r).toMap
    assert(by("MTCSC-C").rmse < by("Dirty").rmse)
    assert(by("MTCSC-C").rmse < by("SCREEN").rmse, "joint constraint wins on ECG")
    // MTCSC-C is faster than the two univariate constraint baselines that
    // must scan per dimension (paper: "significantly less time" on ECG)
    assert(by("MTCSC-C").millis <= (by("SCREEN").millis + by("SpeedAcc").millis) * 3)
  }

  test("Figures 10/11 shape: ILD data-size sweep, both patterns") {
    for (pattern <- Seq(ErrorInjector.Together, ErrorInjector.Separate)) {
      val sweep = Experiments.dataSizeSweep(TimeSeriesGen.ild(_), Seq(5000, 10000, 20000),
        0.10, pattern, seeds, Harness.methods)
      Golden.printed(s"figures10-11-ild-$pattern", Experiments.formatSweep(s"ILD data-size sweep ($pattern)", "n", sweep))
      for (row <- sweep) {
        val by = row.rows.map(r => r.method -> r).toMap
        assert(by("MTCSC-C").rmse < by("Dirty").rmse, s"$pattern n=${row.x}")
        assert(by("MTCSC-Uni").rmse < by("Dirty").rmse, s"$pattern n=${row.x}")
      }
    }
  }

  test("Figures 8(c)/9(c) shape: TAO error-rate point, both patterns") {
    // TAO at bench scale (substitution 6 in DESIGN.md): 20k of the 568k.
    val truth = TimeSeriesGen.tao(20000)
    for (pattern <- Seq(ErrorInjector.Together, ErrorInjector.Separate)) {
      val sweep = Experiments.errorRateSweep(truth, Seq(0.10), pattern, seeds,
        zoo("MTCSC-G", "MTCSC-L", "MTCSC-C", "MTCSC-Uni", "SCREEN", "LsGreedy", "EWMA"))
      Golden.printed(s"figures8c-9c-tao-$pattern", Experiments.formatSweep(s"TAO e=10% ($pattern)", "e", sweep))
      val by = sweep.head.rows.map(r => r.method -> r).toMap
      assert(by("MTCSC-C").rmse < by("Dirty").rmse, s"$pattern")
      assert(by("MTCSC-Uni").rmse < by("Dirty").rmse, s"$pattern")
      assert(by("MTCSC-C").rmse < by("EWMA").rmse, s"$pattern")
      if (pattern == ErrorInjector.Together)
        assert(by("MTCSC-C").rmse < by("LsGreedy").rmse, "together: joint constraint wins")
    }
  }

  test("Figure 13 shape: ECG dimension sweep") {
    val sweep = Experiments.dimensionSweep(6000, Seq(4, 8, 16, 32), 0.10, seeds)
    Golden.printed("figure13", Experiments.formatSweep("ECG dimension sweep", "D", sweep))
    for (row <- sweep) {
      val by = row.rows.map(r => r.method -> r).toMap
      assert(by("MTCSC-C").rmse < by("Dirty").rmse, s"D=${row.x}")
      assert(by("MTCSC-G").rmse < by("Dirty").rmse, s"D=${row.x}")
    }
    // time grows roughly linearly in D (paper 5.3.4): 8x dims well under 60x time
    val t4 = sweep.head.rows.find(_.method == "MTCSC-C").get.millis.toDouble
    val t32 = sweep.last.rows.find(_.method == "MTCSC-C").get.millis.toDouble
    assert(t32 < math.max(t4, 2.0) * 60, s"t4=$t4 t32=$t32")
  }
}
