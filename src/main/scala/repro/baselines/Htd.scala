package repro.baselines

import repro.core.{Cleaner, SpeedConstraint, TimePoint}

/** HTD [41] — high-dimensional timing-data cleaning exploiting temporal
  * correlation, batch. The published method "relies heavily on the
  * difference between labeled truth and the observations": its
  * per-dimension constraints are captured from *labelled clean data*
  * (the paper grants it this extra information and calls it unfair).
  *
  * Detection is deliberately conservative: a point is flagged only when
  * it is an isolated per-dimension spike — both its incoming and outgoing
  * consecutive speeds violate the labelled constraint with opposite
  * signs — and repaired by neighbour interpolation. Consecutive error
  * runs are mostly missed, matching the paper's Table 4 observation that
  * "HTD cannot recognize most errors and remains unchanged" (41 repairs).
  */
final case class Htd(scs: Array[SpeedConstraint]) extends Cleaner {
  override def name: String = "HTD"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit = {
    Cleaner.requirePerDimension(xs, scs.length, "constraint")
    PerDim(xs, out) { (ts, vs, l) => Htd.clean1(ts, vs, scs(l).s) }
  }
}

object Htd {
  /** Capture constraints from labelled clean data (the unfair extra). */
  def captureFromTruth(truth: Array[TimePoint], w: Double): Htd =
    Htd(PerDim.captureSpeeds(truth, w, percentile = 0.99))

  def clean1(ts: Array[Double], vs: Array[Double], s: Double): Array[Double] = {
    val n = ts.length
    val out = vs.clone()
    var k = 1
    while (k < n - 1) {
      val dtIn = ts(k) - ts(k - 1)
      val dtOut = ts(k + 1) - ts(k)
      if (dtIn > 0 && dtOut > 0) {
        val vIn = (vs(k) - vs(k - 1)) / dtIn
        val vOut = (vs(k + 1) - vs(k)) / dtOut
        // Isolated spike: jump out and back with opposite signs.
        if (math.abs(vIn) > s && math.abs(vOut) > s && vIn * vOut < 0) {
          val alpha = dtIn / (ts(k + 1) - ts(k - 1))
          out(k) = vs(k - 1) + alpha * (vs(k + 1) - vs(k - 1))
        }
      }
      k += 1
    }
    out
  }
}
