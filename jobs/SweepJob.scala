package repro.jobs

import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.{Experiments, Harness}

/** Entrypoint for the figure-shaped sweeps (Figures 5-11, 13):
  * error-rate, data-size and dimension sweeps.
  *
  * Usage: spark-submit --class repro.jobs.SweepJob repro.jar <which>
  *   which in {stock-rate, ild-rate, ild-size, ecg-dim}
  */
object SweepJob {

  def main(args: Array[String]): Unit = {
    val seeds = Seq(1L, 2L, 3L)
    val rates = Seq(0.05, 0.10, 0.15, 0.20, 0.25)
    args.headOption.getOrElse("stock-rate") match {
      case "stock-rate" =>
        val s = Experiments.errorRateSweep(TimeSeriesGen.stock(12000), rates,
          ErrorInjector.Together, seeds, Harness.methods)
        println(Experiments.formatSweep("Stock: varying error rate", "e", s))
      case "ild-rate" =>
        val s = Experiments.errorRateSweep(TimeSeriesGen.ild(43000), rates,
          ErrorInjector.Together, seeds, Harness.methods)
        println(Experiments.formatSweep("ILD: varying error rate (together)", "e", s))
      case "ild-size" =>
        val s = Experiments.dataSizeSweep(TimeSeriesGen.ild(_), Seq(5000, 10000, 20000, 43000),
          0.10, ErrorInjector.Together, seeds, Harness.methods)
        println(Experiments.formatSweep("ILD: varying data size", "n", s))
      case "ecg-dim" =>
        val s = Experiments.dimensionSweep(6000, Seq(4, 8, 16, 32), 0.10, seeds)
        println(Experiments.formatSweep("ECG: varying dimension", "D", s))
      case other => sys.error(s"unknown sweep $other")
    }
  }
}
