package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness.ResultRow

/** The paper's experiments (Section 5), shared by the spark-submit jobs
  * in jobs/ and the bench suites in bench/. Each function returns
  * structured rows plus a printable paper-style table.
  */
object Experiments {

  // ------------------------------------------------------------- Table 2

  final case class DatasetInfo(name: String, size: Int, dims: Int, error: String, nSeries: Int)

  /** Table 2 — dataset summary, measured from the generators. */
  def table2(full: Boolean = true): Seq[DatasetInfo] = {
    val scale = if (full) 1.0 else 0.1
    def n(x: Int) = math.max(100, (x * scale).toInt)
    val gpsW = TimeSeriesGen.gpsWalk(n(11000))
    val gpsM = TimeSeriesGen.gpsMixed(n(8000))
    Seq(
      DatasetInfo("Stock", TimeSeriesGen.stock(n(12000)).length, 1, "Clean", 1),
      DatasetInfo("ILD", TimeSeriesGen.ild(n(43000)).length, TimeSeriesGen.ild(100)(0).dim, "Clean after pre-process", 1),
      DatasetInfo("Tao", TimeSeriesGen.tao(n(568000)).length, 3, "Clean after pre-process", 1),
      DatasetInfo("ECG", TimeSeriesGen.ecg(n(94000), 32).length, 32, "Clean after pre-process", 1),
      DatasetInfo("GPS(Walk)", gpsW.dirty.length, 2, "Embedded", 1),
      DatasetInfo("GPS(Mixed)", gpsM.dirty.length, 2, "Embedded", 1),
      DatasetInfo("ArrowHead", TimeSeriesGen.arrowHead().head.points.length, 1, "Clean", TimeSeriesGen.arrowHead().size),
      DatasetInfo("AtrialFib", TimeSeriesGen.atrialFib().head.points.length, 2, "Clean", TimeSeriesGen.atrialFib().size),
      DatasetInfo("DSR", TimeSeriesGen.dsr().head.points.length, 1, "Clean", TimeSeriesGen.dsr().size),
      DatasetInfo("SWJ", TimeSeriesGen.swj().head.points.length, 4, "Clean", TimeSeriesGen.swj().size),
    )
  }

  def formatTable2(rows: Seq[DatasetInfo]): String =
    (f"${"dataset"}%-12s ${"Size"}%8s ${"#Dim"}%5s ${"Error"}%-24s ${"#Series"}%8s" +:
      rows.map(r => f"${r.name}%-12s ${r.size}%8d ${r.dims}%5d ${r.error}%-24s ${r.nSeries}%8d"))
      .mkString("\n")

  // ------------------------------------------------------------- Table 3

  def formatTable3(): String =
    (f"${"Algorithm"}%-12s ${"Dimension"}%-14s ${"Process"}%-8s ${"Type"}%-26s" +:
      Cleaners.table3.map(m => f"${m.name}%-12s ${m.dimension}%-14s ${m.process}%-8s ${m.kind}%-26s"))
      .mkString("\n")

  // ------------------------------------------------------------- Table 4

  /** Table 4 — GPS(Walk) with embedded consecutive errors, all methods.
    * Runs through the distributed Spark path.
    */
  def table4(spark: SparkSession, n: Int = 11000): Seq[ResultRow] = {
    val DT = TimeSeriesGen.gpsWalk(n)
    // Domain-knowledge constraint: walking <= 1.6 m/s (paper Section 5.4.3).
    // The window must see past the longest consecutive error run (17
    // points in the paper's collection and in ours), otherwise the
    // cluster/window scan only ever sees error points: w = 30 s.
    val cfg0 = Harness.configFrom(DT.truth, w = 30.0)
    val cfg = cfg0.copy(sc = SpeedConstraint(1.6, 30.0))
    Harness.runAll(spark, Harness.methods(cfg, DT.truth), DT.dirty, DT.truth)
  }

  // --------------------------------------------- error-rate / size sweeps

  final case class SweepRow(x: Double, rows: Seq[ResultRow])

  /** Clean locally (no Spark round-trip) — used inside sweeps where the
    * timing should reflect the algorithm, not session overhead.
    */
  def runLocal(cleaners: Seq[Cleaner], dirty: Array[TimePoint],
               truth: Array[TimePoint]): Seq[ResultRow] = {
    val dirtyRow = ResultRow("Dirty", Metrics.rmse(dirty, truth), 0.0, 0, 0.0, 0)
    dirtyRow +: cleaners.map { c =>
      val (out, ms) = Metrics.timed(c.clean(dirty))
      Harness.score(c.name, out, dirty, truth, ms)
    }
  }

  /** Average rows with the same method name across seeds. */
  def averageRows(perSeed: Seq[Seq[ResultRow]]): Seq[ResultRow] = {
    val byName = perSeed.flatten.groupBy(_.method)
    perSeed.head.map { first =>
      val g = byName(first.method)
      ResultRow(first.method,
        g.map(_.rmse).sum / g.size,
        g.map(_.repairDistance).sum / g.size,
        math.round(g.map(_.repairCount.toDouble).sum / g.size).toInt,
        g.map(_.repairFraction).sum / g.size,
        g.map(_.millis).sum / g.size)
    }
  }

  /** Error-rate sweep on a clean series (Figures 5/6/8/9 shape). */
  def errorRateSweep(truth: Array[TimePoint], rates: Seq[Double],
                     pattern: ErrorInjector.Pattern, seeds: Seq[Long],
                     mkCleaners: (Harness.Config, Array[TimePoint]) => Seq[Cleaner],
                     w: Double = 5.0): Seq[SweepRow] = {
    val cfg = Harness.configFrom(truth, w)
    rates.map { rate =>
      val perSeed = seeds.map { seed =>
        val dirty = ErrorInjector.inject(truth, rate, pattern, seed)
        runLocal(mkCleaners(cfg, truth), dirty, truth)
      }
      SweepRow(rate, averageRows(perSeed))
    }
  }

  /** Data-size sweep at a fixed error rate (Figures 7/10/11 shape). */
  def dataSizeSweep(mkTruth: Int => Array[TimePoint], sizes: Seq[Int], rate: Double,
                    pattern: ErrorInjector.Pattern, seeds: Seq[Long],
                    mkCleaners: (Harness.Config, Array[TimePoint]) => Seq[Cleaner],
                    w: Double = 5.0): Seq[SweepRow] = {
    sizes.map { size =>
      val truth = mkTruth(size)
      val cfg = Harness.configFrom(truth, w)
      val perSeed = seeds.map { seed =>
        val dirty = ErrorInjector.inject(truth, rate, pattern, seed)
        runLocal(mkCleaners(cfg, truth), dirty, truth)
      }
      SweepRow(size.toDouble, averageRows(perSeed))
    }
  }

  /** Dimension sweep on ECG (Figure 13 shape). */
  def dimensionSweep(n: Int, dims: Seq[Int], rate: Double, seeds: Seq[Long]): Seq[SweepRow] = {
    dims.map { d =>
      val truth = TimeSeriesGen.ecg(n, d)
      val cfg = Harness.configFrom(truth, w = 5.0)
      val perSeed = seeds.map { seed =>
        val dirty = ErrorInjector.inject(truth, rate, ErrorInjector.Together, seed)
        runLocal(Seq(MtcscG(cfg.sc), MtcscL(cfg.sc), MtcscC(cfg.sc)), dirty, truth)
      }
      SweepRow(d.toDouble, averageRows(perSeed))
    }
  }

  /** Figure 14 shape — GPS(Mixed) with three initial speed settings:
    * MTCSC-A re-captures the constraint, fixed-constraint methods suffer.
    */
  def adaptiveTransportation(n: Int = 8000): Seq[(String, Seq[ResultRow])] = {
    val DT = TimeSeriesGen.gpsMixed(n)
    val w = 10.0
    val uniScs = Harness.configFrom(DT.truth, w).uniScs
    Seq("walking" -> 1.6, "running" -> 3.33, "cycling" -> 5.0).map { case (mode, s0) =>
      val sc = SpeedConstraint(s0, w)
      val cleaners = Seq[Cleaner](
        MtcscA(sc, b = 6, tau = 0.75, m = 150, beta = 0.75),
        MtcscC(sc), MtcscL(sc),
        Screen(Array(SpeedConstraint(s0, w), SpeedConstraint(s0, w))),
        LsGreedy(), Ewma(),
        Htd.captureFromTruth(DT.truth, w))
      mode -> runLocal(cleaners, DT.dirty, DT.truth)
    }
  }

  /** Figure 15 shape — sensitivity of MTCSC-A over b and tau. */
  def adaptiveSensitivity(n: Int = 4000): (Seq[(Int, Double)], Seq[(Double, Double)]) = {
    val DT = TimeSeriesGen.gpsMixed(n)
    val sc = SpeedConstraint(1.6, 10.0)
    val overB = Seq(4, 6, 8, 10, 12).map { b =>
      b -> Metrics.rmse(MtcscA(sc, b = b).clean(DT.dirty), DT.truth)
    }
    val overTau = Seq(0.25, 0.5, 0.75, 1.5, 3.0, 6.0).map { tau =>
      tau -> Metrics.rmse(MtcscA(sc, tau = tau).clean(DT.dirty), DT.truth)
    }
    (overB, overTau)
  }

  // ------------------------------------------------- Figure 16 (apps)

  final case class AppRow(dataset: String, variant: String, f1: Double, ri: Double)

  /** Classification (KNN/F1) and clustering (K-means/RI) over clean,
    * dirty and repaired training data (Section 5.5). Injection-dependent
    * variants are averaged over seeds — the paper averages 10 runs; the
    * tiny UEA-style sets flip whole F1 points on a single neighbour.
    */
  def applications(rate: Double = 0.10, seeds: Seq[Long] = Seq(1L, 2L, 3L)): Seq[AppRow] = {
    import TimeSeriesGen.LabeledSeries
    val datasets: Seq[(String, Seq[LabeledSeries], ErrorInjector.Pattern)] = Seq(
      ("ArrowHead", TimeSeriesGen.arrowHead(), ErrorInjector.Separate),
      ("AtrialFib", TimeSeriesGen.atrialFib(), ErrorInjector.Together),
      ("DSR", TimeSeriesGen.dsr(), ErrorInjector.Separate),
      ("SWJ", TimeSeriesGen.swj(), ErrorInjector.Together),
    )
    datasets.flatMap { case (name, all, pattern) =>
      val (train, test) = all.splitAt(all.size / 2)
      val w = 20.0
      def scored(tr: Seq[LabeledSeries], seed: Long): (Double, Double) =
        (Knn.evaluate(tr, test), KMeansRI.evaluate(tr, seed))
      val perSeed: Seq[Map[String, (Double, Double)]] = seeds.map { seed =>
        def corrupt(s: LabeledSeries, i: Int): LabeledSeries =
          s.copy(points = ErrorInjector.inject(s.points, rate, pattern, seed * 1000 + i))
        val dirtyTrain = train.zipWithIndex.map { case (s, i) => corrupt(s, i) }
        def repairedWith(mk: Array[TimePoint] => Cleaner): Seq[LabeledSeries] =
          dirtyTrain.map(s => s.copy(points = mk(s.points).clean(s.points)))
        // Constraints are captured from the dirty series itself at the
        // 80th percentile: with 10% errors about 20% of consecutive
        // speeds are corrupted, so that percentile still reflects the
        // clean dynamics.
        Map(
          "Dirty" -> scored(dirtyTrain, seed),
          "MTCSC" -> scored(repairedWith(pts => MtcscC(Harness.configFrom(pts, w, percentile = 0.8).sc)), seed),
          "SCREEN" -> scored(repairedWith(pts => Screen(Harness.configFrom(pts, w, percentile = 0.8).uniScs)), seed),
          "LsGreedy" -> scored(repairedWith(_ => LsGreedy()), seed),
          "EWMA" -> scored(repairedWith(_ => Ewma()), seed),
        )
      }
      val cleanScore = scored(train, seeds.head)
      val variantNames = Seq("Dirty", "MTCSC", "SCREEN", "LsGreedy", "EWMA")
      AppRow(name, "Clean", cleanScore._1, cleanScore._2) +: variantNames.map { v =>
        val f1 = perSeed.map(_(v)._1).sum / perSeed.size
        val ri = perSeed.map(_(v)._2).sum / perSeed.size
        AppRow(name, v, f1, ri)
      }
    }
  }

  // ----------------------------------------------------------- formatting

  def formatSweep(title: String, xLabel: String, sweep: Seq[SweepRow]): String = {
    val sb = new StringBuilder(s"== $title ==\n")
    for (row <- sweep) {
      sb.append(f"-- $xLabel = ${row.x}%.2f --\n")
      sb.append(f"${"method"}%-10s ${"RMSE"}%8s ${"repairDist"}%10s ${"repairNum"}%15s ${"time"}%9s\n")
      row.rows.foreach(r => sb.append(r.fmt).append('\n'))
    }
    sb.toString
  }
}
