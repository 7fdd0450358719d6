package repro.baselines

import repro.core.{Cleaner, TimePoint}

/** EWMA [16] — exponentially weighted moving average smoothing:
  * x'_k = lambda * x_k + (1 - lambda) * x'_{k-1} with lambda = 0.3.
  * Touches essentially every point (the paper's over-repair example).
  */
final case class Ewma() extends Cleaner {
  private final val Lambda = 0.3 // the weight of the new observation
  override def name: String = "EWMA"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit = {
    var k = 1
    while (k < xs.length) {
      var l = 0
      while (l < out(k).v.length) {
        out(k).v(l) = Lambda * xs(k).v(l) + (1 - Lambda) * out(k - 1).v(l)
        l += 1
      }
      k += 1
    }
  }
}
