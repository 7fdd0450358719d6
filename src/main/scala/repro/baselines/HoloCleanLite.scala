package repro.baselines

import repro.core.{Cleaner, SpeedConstraint, TimePoint}

/** HoloClean-lite [30] — probabilistic MAP repair over quantised cells.
  *
  * The paper adapts HoloClean to time series by treating each (timestamp,
  * dimension) value as a cell, quantising the value domain, and encoding
  * the per-dimension speed constraint as a denial constraint. We rebuild
  * exactly those ingredients: each dimension's domain is split into
  * `buckets` candidate values (bucket centres weighted by their empirical
  * frequency = the prior); a cell flagged by the denial constraint is
  * reassigned the candidate maximising log-prior plus compatibility with
  * its temporal neighbours under the constraint. Repairs land on bucket
  * centres, so a quantisation floor on accuracy remains — consistent with
  * the mediocre accuracy HoloClean shows in the paper.
  */
final case class HoloCleanLite(scs: Array[SpeedConstraint], buckets: Int = 50) extends Cleaner {
  override def name: String = "HoloClean"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] =
    PerDim(xs) { (ts, vs, l) => HoloCleanLite.clean1(ts, vs, scs(l).s, buckets) }
}

object HoloCleanLite {
  def clean1(ts: Array[Double], vs: Array[Double], s: Double, buckets: Int): Array[Double] = {
    val n = ts.length
    val out = vs.clone()
    if (n < 3) return out
    val lo = vs.min
    val hi = vs.max
    if (hi <= lo) return out
    val width = (hi - lo) / buckets
    val counts = Array.fill(buckets)(0)
    def bucketOf(v: Double): Int = math.min(buckets - 1, math.max(0, ((v - lo) / width).toInt))
    vs.foreach(v => counts(bucketOf(v)) += 1)
    val centers = Array.tabulate(buckets)(b => lo + (b + 0.5) * width)
    val logPrior = counts.map(c => math.log((c + 1.0) / (n + buckets)))

    // Detection and candidate scoring work on the observed neighbours —
    // conditioning on already-repaired (quantised) values cascades one
    // bucket snap into re-writing the rest of a moving series.
    var k = 1
    while (k < n - 1) {
      val dtIn = ts(k) - ts(k - 1)
      val dtOut = ts(k + 1) - ts(k)
      val violIn = dtIn > 0 && math.abs(vs(k) - vs(k - 1)) / dtIn > s
      val violOut = dtOut > 0 && math.abs(vs(k + 1) - vs(k)) / dtOut > s
      if (violIn && violOut) {
        // MAP over candidates: prior + denial-constraint compatibility
        // with the observed neighbours. A candidate violating both
        // constraints is no repair at all — if none does better, the
        // cell is left unchanged (otherwise the argmax degenerates to
        // the globally densest bucket, arbitrarily far away).
        var bestScore = Double.NegativeInfinity
        var bestVal = out(k)
        var bestViol = 2
        var b = 0
        while (b < buckets) {
          val c = centers(b)
          var score = logPrior(b)
          var viol = 0
          if (math.abs(c - vs(k - 1)) / dtIn > s) { score -= 10.0; viol += 1 }
          if (math.abs(vs(k + 1) - c) / dtOut > s) { score -= 10.0; viol += 1 }
          if (score > bestScore) { bestScore = score; bestVal = c; bestViol = viol }
          b += 1
        }
        if (bestViol < 2) out(k) = bestVal
      }
      k += 1
    }
    out
  }
}
