package repro.baselines

import scala.collection.mutable
import repro.core.{Cleaner, TimePoint}

/** LsGreedy [38] — statistical cleaning: model the distribution of speed
  * *changes* between adjacent points and greedily repair the point with
  * the most improbable change until all changes are likely.
  *
  * The speed-change at k is u_k = v_{k+1} - v_k with v_k the consecutive
  * speed; changes are modelled as a zero-mean Gaussian whose sigma is
  * estimated from the data. Points with |u_k| > 3 sigma are repaired to
  * the time-weighted interpolation of their neighbours (which zeroes the
  * local speed change), largest violation first via a lazy-deletion
  * priority queue. Because sigma is estimated from dirty data, high error
  * rates inflate it and erode detection — the behaviour the paper reports
  * for LsGreedy at e >= 20%.
  */
final case class LsGreedy() extends Cleaner {
  override def name: String = "LsGreedy"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit =
    PerDim(xs, out) { (ts, vs, _) => LsGreedy.clean1(ts, vs) }
}

object LsGreedy {
  private final val SigmaFactor = 3.0 // the detection threshold, in standard deviations of the changes

  def clean1(ts: Array[Double], vs: Array[Double]): Array[Double] = {
    val n = ts.length
    val out = vs.clone()
    if (n < 3) return out

    def speed(i: Int): Double = {
      val dt = ts(i) - ts(i - 1)
      if (dt > 0) (out(i) - out(i - 1)) / dt else 0.0
    }
    def change(k: Int): Double = math.abs(speed(k + 1) - speed(k)) // valid for 1 <= k <= n-2

    val cur = Array.fill(n)(0.0)
    var k = 1
    while (k <= n - 2) { cur(k) = change(k); k += 1 }

    // Sigma of speed changes, estimated once from the (dirty) input.
    val m = (n - 2).toDouble
    val mean = cur.sum / m
    val sigma = math.sqrt(cur.iterator.slice(1, n - 1).map(c => (c - mean) * (c - mean)).sum / m)
    val theta = math.max(SigmaFactor * sigma, 1e-12)

    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(_._1))
    k = 1
    while (k <= n - 2) { if (cur(k) > theta) pq.enqueue((cur(k), k)); k += 1 }

    var guard = 0
    val maxIter = 4 * n
    while (pq.nonEmpty && guard < maxIter) {
      val (c, i) = pq.dequeue()
      if (c == cur(i) && c > theta) { // skip stale lazy-deleted entries
        val alpha = (ts(i) - ts(i - 1)) / (ts(i + 1) - ts(i - 1))
        out(i) = out(i - 1) + alpha * (out(i + 1) - out(i - 1))
        var j = math.max(1, i - 1)
        while (j <= math.min(n - 2, i + 1)) {
          cur(j) = change(j)
          if (cur(j) > theta) pq.enqueue((cur(j), j))
          j += 1
        }
        guard += 1
      }
    }
    out
  }
}
