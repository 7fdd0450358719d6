package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.spark.SparkCleaner

/** The method zoo, its constraint capture and the paper's metrics.
  * [[run]] and [[runAll]] clean through [[repro.spark.SparkCleaner]], the
  * path of Table 4; the sweeps and figures clean locally through
  * [[Experiments.runLocal]].
  */
object Harness {

  /** One result row of a comparison table. */
  final case class ResultRow(method: String, rmse: Double, repairDistance: Double,
                             repairCount: Int, repairFraction: Double, millis: Double) {
    def fmt: String =
      f"$method%-10s ${rmse}%8.4f ${repairDistance}%10.4f   $repairCount%6d(${repairFraction * 100}%5.2f%%) ${millis}%8.2f ms"
  }

  /** Constraint configuration for one experiment: the multivariate `sc`
    * (MTCSC-*) and the per-dimension `uniScs` (univariate methods). All
    * constraint-based methods receive constraints of the same provenance
    * so the comparison stays fair; HTD additionally gets truth-derived
    * limits (the paper grants it those labels).
    */
  final case class Config(sc: SpeedConstraint, uniScs: Array[SpeedConstraint])

  /** The percentile and slack of [[configFrom]]'s default capture, which
    * [[methods]] also applies to SpeedAcc's acceleration caps.
    */
  private val Percentile = 0.99
  private val Slack = 1.15

  /** Expert-style constraint capture: percentile of the reference
    * series' speeds with a small slack factor (the paper uses domain
    * knowledge or a 95% confidence level; Section 4 motivates why pure
    * dirty-data capture is fragile).
    */
  def configFrom(reference: Array[TimePoint], w: Double,
                 percentile: Double = Percentile, slack: Double = Slack): Config =
    Config(SpeedConstraint.capture(reference, w, percentile, slack),
      PerDim.captureSpeeds(reference, w, percentile, slack))

  /** The standard method zoo for a comparison table. `truth` is needed
    * only by HTD's labelled capture and SpeedAcc's acceleration caps,
    * which are captured from it as [[configFrom]] captures speeds.
    */
  def methods(cfg: Config, truth: Array[TimePoint]): Seq[Cleaner] = Seq(
    MtcscG(cfg.sc), MtcscL(cfg.sc), MtcscC(cfg.sc), MtcscUni(cfg.uniScs),
    Screen(cfg.uniScs), SpeedAcc(cfg.uniScs, PerDim.captureAccelerations(truth, Percentile, Slack)),
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
