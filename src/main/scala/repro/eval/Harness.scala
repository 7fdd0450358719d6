package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.spark.SparkCleaner

/** Runs the full method zoo over a (dirty, truth) pair and collects the
  * paper's metrics. Distributed execution goes through
  * [[repro.spark.SparkCleaner]]; single-series inputs are cleaned
  * directly (one group) so timing reflects the algorithm.
  */
object Harness {

  /** One result row of a comparison table. */
  final case class ResultRow(method: String, rmse: Double, repairDistance: Double,
                             repairCount: Int, repairFraction: Double, millis: Double) {
    def fmt: String =
      f"$method%-10s ${rmse}%8.4f ${repairDistance}%10.4f   $repairCount%6d(${repairFraction * 100}%5.2f%%) ${millis}%8.2f ms"
  }

  /** Constraint configuration for one experiment. All constraint-based
    * methods receive constraints of the same provenance so the
    * comparison stays fair; HTD additionally gets truth-derived limits
    * (the paper grants it those labels).
    */
  final case class Config(
      sc: SpeedConstraint,                 // multivariate constraint (MTCSC-*)
      uniScs: Array[SpeedConstraint],      // per-dimension constraints (univariate methods)
  )(accsOf: => Array[Double]) {
    /** Per-dimension acceleration caps (SpeedAcc), evaluated on first use:
      * their capture costs about what the speeds' does, and only SpeedAcc
      * reads them.
      */
    lazy val accs: Array[Double] = accsOf
  }

  /** Expert-style constraint capture: percentile of the reference
    * series' speeds (and, for SpeedAcc, accelerations) with a small slack
    * factor (the paper uses domain knowledge or a 95% confidence level;
    * Section 4 motivates why pure dirty-data capture is fragile).
    */
  def configFrom(reference: Array[TimePoint], w: Double,
                 percentile: Double = 0.99, slack: Double = 1.15): Config =
    Config(SpeedConstraint.capture(reference, w, percentile, slack),
      PerDim.captureSpeeds(reference, w, percentile, slack))(
      PerDim.captureAccelerations(reference, percentile, slack))

  /** The standard method zoo for a comparison table. `truth` is needed
    * only by HTD's labelled capture.
    */
  def methods(cfg: Config, truth: Array[TimePoint]): Seq[Cleaner] = Seq(
    MtcscG(cfg.sc), MtcscL(cfg.sc), MtcscC(cfg.sc), MtcscUni(cfg.uniScs),
    Screen(cfg.uniScs), SpeedAcc(cfg.uniScs, cfg.accs),
    LsGreedy(), Ewma(), Rcsws(), Htd.captureFromTruth(truth, cfg.sc.w),
    HoloCleanLite(cfg.uniScs), TranAdLite(), CaeMLite())

  /** Clean one series with one method through the Spark path and score it. */
  def run(spark: SparkSession, cleaner: Cleaner,
          dirty: Array[TimePoint], truth: Array[TimePoint]): ResultRow = {
    val ds = SparkCleaner.toDS(spark, Seq(0L -> dirty))
    val (repaired, ms) = Metrics.timed {
      SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner))(0L)
    }
    score(cleaner.name, repaired, dirty, truth, ms)
  }

  def score(name: String, repaired: Array[TimePoint],
            dirty: Array[TimePoint], truth: Array[TimePoint], ms: Double): ResultRow =
    ResultRow(name, Metrics.rmse(repaired, truth), Metrics.repairDistance(repaired, dirty),
      Metrics.repairCount(repaired, dirty), Metrics.repairFraction(repaired, dirty), ms)

  /** The Dirty row of a table: the input scored as its own repair. */
  def dirtyRow(dirty: Array[TimePoint], truth: Array[TimePoint]): ResultRow =
    ResultRow("Dirty", Metrics.rmse(dirty, truth), 0.0, 0, 0.0, 0)

  /** Run a whole method zoo; prepends the Dirty row (no repair). */
  def runAll(spark: SparkSession, cleaners: Seq[Cleaner],
             dirty: Array[TimePoint], truth: Array[TimePoint]): Seq[ResultRow] =
    dirtyRow(dirty, truth) +: cleaners.map(c => run(spark, c, dirty, truth))

  def formatTable(title: String, rows: Seq[ResultRow]): String = {
    val header = f"${"method"}%-10s ${"RMSE"}%8s ${"repairDist"}%10s ${"repairNum"}%15s ${"time"}%11s"
    (s"== $title ==" +: header +: rows.map(_.fmt)).mkString("\n")
  }
}
