package repro.eval

import repro.core.TimePoint

/** Repair-quality metrics (Section 5.1.2). */
object Metrics {

  /** RMSE of the repair against the ground truth:
    * sqrt(mean over points of squared Euclidean distance across dims).
    */
  def rmse(repaired: Array[TimePoint], truth: Array[TimePoint]): Double = {
    require(repaired.length == truth.length, "length mismatch")
    if (repaired.isEmpty) return 0.0
    var acc = 0.0
    var i = 0
    while (i < repaired.length) {
      val d = repaired(i).dist(truth(i))
      acc += d * d
      i += 1
    }
    math.sqrt(acc / repaired.length)
  }

  /** Repair distance delta(x', x) = sum d(x'_i, x_i) / n. */
  def repairDistance(repaired: Array[TimePoint], dirty: Array[TimePoint]): Double = {
    require(repaired.length == dirty.length, "length mismatch")
    if (repaired.isEmpty) return 0.0
    var acc = 0.0
    var i = 0
    while (i < repaired.length) { acc += repaired(i).dist(dirty(i)); i += 1 }
    acc / repaired.length
  }

  /** Repair number: count of points whose value vector changed. */
  def repairCount(repaired: Array[TimePoint], dirty: Array[TimePoint], eps: Double = 1e-7): Int = {
    require(repaired.length == dirty.length, "length mismatch")
    var c = 0
    var i = 0
    while (i < repaired.length) { if (!repaired(i).sameValues(dirty(i), eps)) c += 1; i += 1 }
    c
  }

  /** Repair number as a fraction of n. */
  def repairFraction(repaired: Array[TimePoint], dirty: Array[TimePoint]): Double =
    if (repaired.isEmpty) 0.0 else repairCount(repaired, dirty).toDouble / repaired.length

  /** Wall-clock a thunk, returning (result, fractional milliseconds). */
  def timed[A](thunk: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = thunk
    (a, (System.nanoTime() - t0) / 1e6)
  }
}
