package repro.baselines

import repro.core.{Cleaner, TimePoint}

// Lightweight stand-ins for the paper's deep-learning baselines. The
// container has no GPU / deep-learning stack, so each is replaced by the
// closest classical model exercising the same code path: an
// unsupervised reconstructor trained on the *dirty* data whose
// predicted/reconstructed values serve as repair candidates
// (DESIGN.md §4 substitution 3).

/** TranAD-lite [35] — prediction-based: an online per-dimension AR(`P`)
  * linear predictor trained by SGD over the (normalised) dirty stream.
  * A point whose prediction error exceeds `Z` running standard
  * deviations is replaced by the prediction.
  */
final case class TranAdLite() extends Cleaner {
  override def name: String = "TranAD"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit =
    PerDim(xs, out) { (_, vs, _) => TranAdLite.clean1(vs) }
}

object TranAdLite {
  private final val P = 3 // the predictor's order
  private final val Lr = 0.05 // the SGD learning rate
  private final val Z = 2.5 // the anomaly threshold, in running standard deviations

  def clean1(vs: Array[Double]): Array[Double] = {
    val n = vs.length
    val out = vs.clone()
    if (n <= P + 1) return out
    // Normalise to zero mean / unit variance so SGD is stable.
    val mean = vs.sum / n
    val sd = math.max(math.sqrt(vs.map(v => (v - mean) * (v - mean)).sum / n), 1e-9)
    val x = vs.map(v => (v - mean) / sd)
    val wts = Array.fill(P)(1.0 / P)
    var errMean = 0.0
    var errVar = 1.0
    var k = P
    while (k < n) {
      var pred = 0.0
      var j = 0
      while (j < P) { pred += wts(j) * x(k - 1 - j); j += 1 }
      val err = x(k) - pred
      // Running anomaly statistics (EW updates).
      val score = math.abs(err - errMean) / math.max(math.sqrt(errVar), 1e-6)
      if (score > Z) out(k) = pred * sd + mean
      errMean = 0.98 * errMean + 0.02 * err
      errVar = 0.98 * errVar + 0.02 * (err - errMean) * (err - errMean)
      // SGD step on the (dirty) observation.
      j = 0
      while (j < P) { wts(j) += Lr * err * x(k - 1 - j); j += 1 }
      k += 1
    }
    out
  }
}

/** CAE-M-lite [39] — reconstruction-based: a per-dimension ridge
  * regression reconstructing each value from its window context
  * (2 left + 2 right neighbours), fit by normal equations on the dirty
  * series itself. Points with reconstruction residual above `Z` residual
  * standard deviations are replaced by the reconstruction.
  */
final case class CaeMLite() extends Cleaner {
  override def name: String = "CAE-M"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit =
    PerDim(xs, out) { (_, vs, _) => CaeMLite.clean1(vs) }
}

object CaeMLite {
  private val Offsets = Array(-2, -1, 1, 2)
  private final val Ridge = 1e-3 // the ridge penalty per interior point
  private final val Z = 3.0 // the anomaly threshold, in residual standard deviations

  def clean1(vs: Array[Double]): Array[Double] = {
    val n = vs.length
    val out = vs.clone()
    if (n < 8) return out
    val p = Offsets.length
    // Normal equations A w = b over interior points.
    val a = Array.ofDim[Double](p, p)
    val b = Array.fill(p)(0.0)
    var k = 2
    while (k < n - 2) {
      val feat = Offsets.map(o => vs(k + o))
      var i = 0
      while (i < p) {
        b(i) += feat(i) * vs(k)
        var j = 0
        while (j < p) { a(i)(j) += feat(i) * feat(j); j += 1 }
        i += 1
      }
      k += 1
    }
    var i = 0
    while (i < p) { a(i)(i) += Ridge * (n - 4); i += 1 }
    val w = solve(a, b)

    def recon(k: Int): Double = {
      var r = 0.0
      var j = 0
      while (j < p) { r += w(j) * vs(k + Offsets(j)); j += 1 }
      r
    }
    val resid = (2 until n - 2).map(k => vs(k) - recon(k)).toArray
    val rm = resid.sum / resid.length
    val rsd = math.max(math.sqrt(resid.map(r => (r - rm) * (r - rm)).sum / resid.length), 1e-9)
    k = 2
    while (k < n - 2) {
      if (math.abs(vs(k) - recon(k) - rm) > Z * rsd) out(k) = recon(k)
      k += 1
    }
    out
  }

  /** Gaussian elimination with partial pivoting (p x p, p tiny). */
  private def solve(a0: Array[Array[Double]], b0: Array[Double]): Array[Double] = {
    val p = b0.length
    val a = a0.map(_.clone())
    val b = b0.clone()
    var col = 0
    while (col < p) {
      var piv = col
      var r = col + 1
      while (r < p) { if (math.abs(a(r)(col)) > math.abs(a(piv)(col))) piv = r; r += 1 }
      val tmp = a(col); a(col) = a(piv); a(piv) = tmp
      val tb = b(col); b(col) = b(piv); b(piv) = tb
      val d = if (a(col)(col) == 0) 1e-12 else a(col)(col)
      r = col + 1
      while (r < p) {
        val f = a(r)(col) / d
        var c = col
        while (c < p) { a(r)(c) -= f * a(col)(c); c += 1 }
        b(r) -= f * b(col)
        r += 1
      }
      col += 1
    }
    val x = Array.fill(p)(0.0)
    var r = p - 1
    while (r >= 0) {
      var acc = b(r)
      var c = r + 1
      while (c < p) { acc -= a(r)(c) * x(c); c += 1 }
      x(r) = acc / (if (a(r)(r) == 0) 1e-12 else a(r)(r))
      r -= 1
    }
    x
  }
}
