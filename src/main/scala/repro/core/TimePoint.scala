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
    * MTCSC-G, MTCSC-L and MTCSC-C. When `m` shares `p`'s timestamp (and
    * so `target`'s) alpha is 0: the two are speed-compatible at dt = 0,
    * so their values already agree within `SpeedConstraint.Eps`.
    */
  private[core] def interpolate(target: TimePoint, p: TimePoint, m: TimePoint): Unit = {
    val alpha = if (m.t == p.t) 0.0 else (target.t - p.t) / (m.t - p.t)
    var l = 0
    while (l < target.v.length) {
      target.v(l) = alpha * (m.v(l) - p.v(l)) + p.v(l)
      l += 1
    }
  }

  /** Deep copy of a series that also checks the cleaners' input contract
    * in the same pass: timestamps finite and non-decreasing (duplicates
    * are allowed), values finite, and every point of the first point's
    * dimension. Throws an [[InputContractException]] naming the first bad
    * index. A long series is checked and copied in the chunks of the
    * online methods' driver ([[Chunked]]).
    */
  def checkedCopyOf(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = new Array[TimePoint](xs.length)
    check(xs, out, Chunked.bounds(0, xs.length, xs.length))
    out
  }

  /** Checks the input contract as [[checkedCopyOf]] does, copying nothing. */
  def check(xs: Array[TimePoint]): Unit = check(xs, null, Chunked.bounds(0, xs.length, xs.length))

  /** Checks `xs` in the chunks between consecutive `bounds`, copying each
    * point into `out` unless it is null, and rejects the first bad point:
    * the first that any chunk reports.
    */
  private[core] def check(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int]): Unit = {
    val bad = new Array[Int](bounds.length - 1)
    Chunked.forkJoin(bad.length)(c => bad(c) = firstBad(xs, bounds(c), bounds(c + 1), out))
    bad.find(_ >= 0).foreach(reject(xs, _))
  }

  /** The first point of `xs[lo, hi)` that breaks the contract, or -1;
    * copies the points before it into `out` unless it is null.
    */
  private def firstBad(xs: Array[TimePoint], lo: Int, hi: Int, out: Array[TimePoint]): Int = {
    val d = if (xs.isEmpty) 0 else xs(0).dim
    var prevT = if (lo == 0) Double.NegativeInfinity else xs(lo - 1).t
    var i = lo
    while (i < hi) {
      val p = xs(i)
      val src = p.v
      if (!java.lang.Double.isFinite(p.t) || p.t < prevT || src.length != d) return i
      // Checking each value as it is copied keeps this as fast as
      // `copyOf`; checking before or after a clone costs markedly more.
      val v = if (out == null) null else new Array[Double](d)
      var l = 0
      while (l < d) {
        val x = src(l)
        if (!java.lang.Double.isFinite(x)) return i
        if (v != null) v(l) = x
        l += 1
      }
      prevT = p.t
      if (v != null) out(i) = TimePoint(p.t, v)
      i += 1
    }
    -1
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
    throw new InputContractException(i, p.t, why, None)
  }
}

/** A series outside the cleaners' input contract: point `index`, at time
  * `t`, breaks it for `reason`. `series` names the series where it is
  * known; [[InputContractException.inSeries]] adds it. The one place that
  * builds the message: `point i (t = …): why`, after `series S, ` when the
  * series is known.
  */
final class InputContractException(val index: Long, val t: Double, val reason: String, val series: Option[Long])
    extends IllegalArgumentException(series.fold("")(id => s"series $id, ") + s"point $index (t = $t): $reason")

object InputContractException {
  /** Evaluates `body`, rethrowing a contract error it raises with series `id` named. */
  def inSeries[A](id: Long)(body: => A): A =
    try body catch {
      case e: InputContractException => throw new InputContractException(e.index, e.t, e.reason, Some(id)).initCause(e)
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
}
