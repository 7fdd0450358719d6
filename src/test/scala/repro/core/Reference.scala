package repro.core

import org.apache.spark.sql.Dataset
import scala.collection.mutable
import scala.collection.mutable.ArrayDeque

/** Readable reference versions of the MTCSC kernels: the paper's
  * algorithms written down directly, kept as test oracles for the pruned,
  * array-backed and step-wise kernels in `repro.core`, which must
  * reproduce them bit for bit. The row-wise clean and collect are the
  * oracles for the block shuffle in `SparkCleaner.clean` and the block
  * packing in `SparkCleaner.collectSeries`. Definition 2.3's
  * window-aware pair and whole-series checks and Algorithm 5's
  * histograms are here too: the kernels use neither.
  */
object Reference {

  /** satisfy(xi, xj) — Definition 2.3: true iff the pair is compatible
    * w.r.t. `s`. Order-insensitive; pairs with time gap 0 are compatible
    * only when values coincide, pairs with gap > w carry no constraint.
    * The kernels use the pure [[SpeedConstraint.speedOk]] instead.
    */
  def satisfy(sc: SpeedConstraint, a: TimePoint, b: TimePoint): Boolean = {
    val dt = math.abs(b.t - a.t)
    if (dt > sc.w) true
    else sc.speedOk(a, b)
  }

  /** True iff every in-window pair of the series is compatible (x |= s). */
  def satisfiedBy(sc: SpeedConstraint, xs: Array[TimePoint]): Boolean = {
    var i = 0
    while (i < xs.length) {
      var j = i + 1
      while (j < xs.length && xs(j).t - xs(i).t <= sc.w) {
        if (!satisfy(sc, xs(i), xs(j))) return false
        j += 1
      }
      i += 1
    }
    true
  }

  /** Algorithm 1 without pruning: the O(n²) longest-compatible-chain DP.
    * `pre(i)` is the smallest compatible j with the best `dp(j) + 1`.
    */
  def fixList(xs: Array[TimePoint], sc: SpeedConstraint): Array[Int] = {
    val n = xs.length
    val dp = Array.fill(n)(1)
    val pre = Array.fill(n)(-1)
    var maxLen = 0
    var endIdx = 0
    for (i <- 0 until n) {
      for (j <- 0 until i)
        if (sc.speedOk(xs(i), xs(j)) && dp(i) < dp(j) + 1) {
          dp(i) = dp(j) + 1
          pre(i) = j
        }
      if (dp(i) > maxLen) { maxLen = dp(i); endIdx = i }
    }
    val clean = Array.fill(n)(false)
    var k = endIdx
    while (k >= 0) { clean(k) = true; k = pre(k) }
    (0 until n).filterNot(clean).toArray
  }

  /** Algorithm 2 as one loop over the series: keep a point compatible
    * with the previous repair, else interpolate toward the first
    * compatible successor inside the window (formula (6)), else reuse the
    * previous repair.
    */
  def cleanL(xs: Array[TimePoint], sc: SpeedConstraint): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    val n = xs.length
    var k = 1
    while (k < n) {
      if (!sc.speedOk(xs(k), out(k - 1))) {
        var i = k + 1
        var done = false
        while (i < n && !done) {
          if (xs(i).t > xs(k).t + sc.w) {
            Array.copy(out(k - 1).v, 0, out(k).v, 0, out(k).v.length)
            done = true
          } else if (sc.speedOk(xs(i), out(k - 1))) {
            val p = out(k - 1)
            val alpha = if (xs(i).t == p.t) 0.0 else (xs(k).t - p.t) / (xs(i).t - p.t)
            for (l <- out(k).v.indices) out(k).v(l) = alpha * (xs(i).v(l) - p.v(l)) + p.v(l)
            done = true
          } else i += 1
        }
        // Ran off the end of the series: fall back to the previous repair.
        if (!done) Array.copy(out(k - 1).v, 0, out(k).v, 0, out(k).v.length)
      }
      k += 1
    }
    out
  }

  private final val OMIT = -2
  private final val HEAD = -1

  /** BuildCluster (Algorithm 3) over the succeeding points `w` of a
    * window, anchored on `p`, the last repaired point before it. Returns
    * the clusters in creation order; each lists relative indices into
    * `w`, its head first.
    */
  def buildClusters(p: TimePoint, w: Array[TimePoint], sc: SpeedConstraint): Seq[Seq[Int]] = {
    val n = w.length
    val f = Array.fill(n)(OMIT)
    val map = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Int]]
    val head = w.indexWhere(sc.speedOk(p, _))
    if (head < 0) return Seq.empty
    f(head) = HEAD
    map(head) = mutable.ArrayBuffer(head)
    for (i <- head + 1 until n) {
      var j = i - 1
      var done = false
      while (!done) {
        if (sc.speedOk(w(i), w(j))) {
          // Action 1: join j's cluster; an omitted j leaves i omitted.
          if (f(j) == HEAD) { f(i) = j; map(j) += i }
          else if (f(j) >= 0) { f(i) = f(j); map(f(i)) += i }
          done = true
        } else if (j == head || f(j) >= 0) {
          // Action 2: open a new cluster if i is compatible with p.
          if (sc.speedOk(p, w(i))) { f(i) = HEAD; map(i) = mutable.ArrayBuffer(i) }
          done = true
        } else j -= 1 // Action 3: look further back
      }
    }
    map.values.map(_.toSeq).toSeq
  }

  /** One Algorithm 4 iteration for key point k, built on [[buildClusters]]. */
  def stepC(out: Array[TimePoint], xs: Array[TimePoint], k: Int, sc: SpeedConstraint): Unit = {
    var end = k + 1
    while (end < xs.length && xs(end).t <= xs(k).t + sc.w) end += 1
    val clusters = buildClusters(out(k - 1), xs.slice(k + 1, end), sc)
    val p = out(k - 1)
    if (clusters.nonEmpty) {
      val rep = xs(k + 1 + clusters.maxBy(_.size).head)
      if (!(sc.speedOk(p, xs(k)) && sc.speedOk(xs(k), rep))) {
        val alpha = if (rep.t == p.t) 0.0 else (xs(k).t - p.t) / (rep.t - p.t)
        for (l <- out(k).v.indices) out(k).v(l) = alpha * (rep.v(l) - p.v(l)) + p.v(l)
      }
    } else if (!sc.speedOk(p, xs(k))) {
      val d = xs(k).dist(p)
      val scale = if (d > 0) sc.s * (xs(k).t - p.t) / d else 0.0
      for (l <- out(k).v.indices) out(k).v(l) = p.v(l) + scale * (xs(k).v(l) - p.v(l))
    }
  }

  def cleanC(xs: Array[TimePoint], sc: SpeedConstraint): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    for (k <- 1 until xs.length) stepC(out, xs, k, sc)
    out
  }

  /** Bucket counts of Algorithm 5's histograms, through the kernel's
    * [[MtcscA.bucket]]: b-1 equal intervals over [0, s] plus overflow
    * (s, inf). (Example 4.1: s = 2.2, b = 6 yields interval width 0.44.)
    */
  def bucketCounts(speeds: Iterable[Double], b: Int, s: Double): Array[Int] = {
    val counts = Array.fill(b)(0)
    val width = s / (b - 1)
    for (v <- speeds) counts(MtcscA.bucket(v, b, s, width)) += 1
    counts
  }

  /** Normalized probability distribution over the buckets. */
  def distribution(speeds: Iterable[Double], b: Int, s: Double): Array[Double] = {
    val counts = bucketCounts(speeds, b, s)
    val total = counts.sum.toDouble
    if (total == 0) Array.fill(b)(0.0) else counts.map(_ / total)
  }

  /** KL divergence with natural log; 0-probability p terms contribute 0,
    * 0-probability q terms are clamped to avoid infinities.
    */
  def kl(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length)
    var acc = 0.0
    var i = 0
    while (i < p.length) {
      if (p(i) > 0) acc += MtcscA.klTerm(p(i), q(i))
      i += 1
    }
    acc
  }

  /** Algorithm 5's state kept as two speed deques, rebucketed and
    * compared on every point.
    */
  final class AdaptiveState(b: Int, tau: Double, m: Int, beta: Double) {
    private val w1 = ArrayDeque.empty[Double]
    private val w2 = ArrayDeque.empty[Double]

    def update(p: TimePoint, k: TimePoint, s: Double): Double = {
      val dt = k.t - p.t
      if (dt <= 0) return s
      val s1 = k.dist(p) / dt
      var out = s
      if (w1.size < m) w1.append(s1)
      else if (w2.size < m) w2.append(s1)
      else {
        if (kl(distribution(w1, b, s), distribution(w2, b, s)) > tau)
          out = SpeedConstraint.floorSpeed(SpeedConstraint.quantile(w2.toArray, 0.95) / beta)
        w1.append(w2.removeHead()); w1.removeHead()
        w2.append(s1)
      }
      out
    }
  }

  /** MTCSC-A on the reference state and step; also returns how many
    * times `s` changed.
    */
  def cleanA(xs: Array[TimePoint], a: MtcscA): (Array[TimePoint], Int) = {
    val out = TimePoint.copyOf(xs)
    val state = new AdaptiveState(a.b, a.tau, a.m, a.beta)
    var s = a.initial.s
    var changes = 0
    for (k <- 1 until xs.length) {
      val s2 = state.update(xs(k - 1), xs(k), s)
      if (s2 != s) changes += 1
      s = s2
      stepC(out, xs, k, SpeedConstraint(s, a.initial.w))
    }
    (out, changes)
  }

  /** MTCSC-Uni as reference MTCSC-C on one univariate series per dimension. */
  def cleanUni(xs: Array[TimePoint], scs: Array[SpeedConstraint]): Array[TimePoint] = {
    val out = TimePoint.copyOf(xs)
    for (l <- scs.indices) {
      val cleaned = cleanC(xs.map(p => TimePoint.uni(p.t, p.v(l))), scs(l))
      for (i <- xs.indices) out(i).v(l) = cleaned(i).v(0)
    }
    out
  }

  /** One row per point of series `id`. */
  def rows(id: Long, pts: Array[TimePoint]): Seq[SeriesRow] = pts.toSeq.map(p => SeriesRow(id, p.t, p.v.toSeq))

  /** Every row through the shuffle, grouped by key, each key's rows stably
    * sorted by `t` and cleaned.
    */
  def cleanRows(ds: Dataset[SeriesRow], cleaner: Cleaner): Dataset[SeriesRow] = {
    import ds.sparkSession.implicits._
    ds.groupByKey(_.seriesId).flatMapGroups { (id, group) =>
      val pts = SeriesRow.toPoints(group.toSeq)
      rows(id, cleaner.clean(pts)).iterator
    }
  }

  /** Every row to the driver, grouped by key in collect order, each key's
    * rows stably sorted by `t`.
    */
  def collectSeries(ds: Dataset[SeriesRow]): Map[Long, Array[TimePoint]] =
    ds.collect().groupBy(_.seriesId).map { case (id, rows) =>
      id -> SeriesRow.toPoints(rows.toSeq)
    }
}
