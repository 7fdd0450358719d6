package repro.core

/** A single multivariate observation: value vector `v` at timestamp `t`.
  *
  * Timestamps are doubles (seconds, trading ticks, sample indices — the
  * algorithms only ever use differences). `v` has one entry per dimension.
  */
final case class TimePoint(t: Double, v: Array[Double]) {

  /** Number of dimensions D. */
  def dim: Int = v.length

  /** Euclidean distance to another point (Definition 2.2). */
  def dist(o: TimePoint): Double = {
    var acc = 0.0
    var l = 0
    while (l < v.length) { val d = v(l) - o.v(l); acc += d * d; l += 1 }
    math.sqrt(acc)
  }

  /** Value-equality with a tolerance — used to count repairs Δ(x', x). */
  def sameValues(o: TimePoint, eps: Double = 1e-9): Boolean = {
    var l = 0
    while (l < v.length) {
      if (math.abs(v(l) - o.v(l)) > eps) return false
      l += 1
    }
    true
  }

  override def toString: String = s"TimePoint($t, [${v.mkString(", ")}])"
}

object TimePoint {
  /** Convenience constructor for univariate points. */
  def uni(t: Double, x: Double): TimePoint = TimePoint(t, Array(x))

  /** Deep copy — repairs mutate value arrays, inputs must stay intact. */
  def copyOf(p: TimePoint): TimePoint = TimePoint(p.t, p.v.clone())

  /** Deep copy of a whole series. */
  def copyOf(xs: Array[TimePoint]): Array[TimePoint] = xs.map(copyOf)

  /** Formula (6): repairs `target`, a copy of the point at t_k, onto the
    * line from `p` to `m`: x'_k = alpha * (x_m - x'_p) + x'_p with
    * alpha = (t_k - t_p) / (t_m - t_p). The one interpolation site of
    * MTCSC-G, MTCSC-L and MTCSC-C.
    */
  private[core] def interpolate(target: TimePoint, p: TimePoint, m: TimePoint): Unit = {
    val alpha = (target.t - p.t) / (m.t - p.t)
    var l = 0
    while (l < target.v.length) {
      target.v(l) = alpha * (m.v(l) - p.v(l)) + p.v(l)
      l += 1
    }
  }

  /** Deep copy of a series that also checks the cleaners' input contract
    * in the same pass: timestamps finite and non-decreasing (duplicates
    * are allowed), values finite, and every point of the first point's
    * dimension. Throws IllegalArgumentException naming the first bad index.
    */
  def checkedCopyOf(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = new Array[TimePoint](xs.length)
    val d = if (xs.isEmpty) 0 else xs(0).dim
    var prevT = Double.NegativeInfinity
    var i = 0
    while (i < xs.length) {
      val p = xs(i)
      val src = p.v
      if (!java.lang.Double.isFinite(p.t) || p.t < prevT || src.length != d) reject(xs, i)
      // Checking each value as it is copied keeps this as fast as
      // `copyOf`; checking before or after a clone costs markedly more.
      val v = new Array[Double](d)
      var l = 0
      while (l < d) {
        val x = src(l)
        if (!java.lang.Double.isFinite(x)) reject(xs, i)
        v(l) = x
        l += 1
      }
      prevT = p.t
      out(i) = TimePoint(p.t, v)
      i += 1
    }
    out
  }

  /** The error for point i, the first that breaks the input contract. */
  private def reject(xs: Array[TimePoint], i: Int): Nothing = {
    val p = xs(i)
    val why =
      if (!java.lang.Double.isFinite(p.t)) "timestamp is not finite"
      else if (i > 0 && p.t < xs(i - 1).t) s"timestamp decreases from ${xs(i - 1).t}"
      else if (p.dim != xs(0).dim) s"has ${p.dim} dimensions, point 0 has ${xs(0).dim}"
      else {
        val l = p.v.indexWhere(x => !java.lang.Double.isFinite(x))
        s"value ${p.v(l)} in dimension $l is not finite"
      }
    throw new IllegalArgumentException(s"point $i (t = ${p.t}): $why")
  }
}

/** Spark-facing row for one observation of one series.
  *
  * `seriesId` partitions the data (one logical time series per key);
  * rows within a key are sorted by `t` before cleaning.
  */
final case class SeriesRow(seriesId: Long, t: Double, dims: Seq[Double])

object SeriesRow {
  def toPoints(rows: Seq[SeriesRow]): Array[TimePoint] =
    rows.sortBy(_.t).map(r => TimePoint(r.t, r.dims.toArray)).toArray

  def fromPoints(seriesId: Long, pts: Array[TimePoint]): Seq[SeriesRow] =
    pts.toSeq.map(p => SeriesRow(seriesId, p.t, p.v.toSeq))
}
