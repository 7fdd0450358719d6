package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Order statistics over timing samples. Quantiles interpolate linearly
  * between closest ranks, so a median of an even count is the mean of the
  * two middle samples.
  */
object Stats {

  def quantile(sorted: Array[Double], q: Double): Double = {
    require(sorted.nonEmpty, "no samples")
    val pos = q * (sorted.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(sorted.length - 1, lo + 1)
    sorted(lo) + (pos - lo) * (sorted(hi) - sorted(lo))
  }

  def median(xs: Iterable[Double]): Double = quantile(xs.toArray.sorted, 0.5)

  /** The highest percentile that still has `beyond` samples above it, as
    * (percentile, value) by nearest rank; None when there are too few samples.
    */
  def tail(xs: Iterable[Double], beyond: Int = 10): Option[(Double, Double)] = {
    val sorted = xs.toArray.sorted
    val rank = sorted.length - beyond // 1-based nearest rank
    if (rank < 1) None else Some((100.0 * rank / sorted.length, sorted(rank - 1)))
  }

  def geomean(xs: Iterable[Double]): Double =
    math.exp(xs.map(math.log).sum / xs.size)
}

/** Wall-clock samples of one operation, in nanoseconds. */
final class Samples {
  private val buf = ArrayBuffer.empty[Double]

  def add(ns: Long): Unit = buf += ns.toDouble
  def size: Int = buf.length
  def values: Seq[Double] = buf.toSeq
  def medianNs: Double = if (buf.isEmpty) Double.NaN else Stats.median(buf)
  def quartilesNs: (Double, Double) = {
    val s = buf.toArray.sorted
    (Stats.quantile(s, 0.25), Stats.quantile(s, 0.75))
  }
}
