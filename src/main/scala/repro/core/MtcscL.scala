package repro.core

/** MTCSC-L — online local streaming repair (Algorithm 2).
  *
  * For each arriving point k: keep it if it is compatible with the
  * previous repaired point; otherwise scan forward inside the window for
  * the first successor compatible with the previous repair and place the
  * repair on the line between them (formula (6)). If the window is
  * exhausted the previous repaired value is reused. Soundness w.r.t. the
  * speed constraint is guaranteed (Proposition 3.2).
  */
final case class MtcscL(sc: SpeedConstraint) extends Cleaner {
  override def name: String = "MTCSC-L"

  override def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = TimePoint.checkedCopyOf(xs)
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
            interpolate(out(k), out(k - 1), xs(i))
            done = true
          } else i += 1
        }
        // Ran off the end of the series without a compatible successor:
        // fall back to the previous repair (same as window exhaustion).
        if (!done) Array.copy(out(k - 1).v, 0, out(k).v, 0, out(k).v.length)
      }
      k += 1
    }
    out
  }

  /** x'_k = alpha * (x_m - x'_p) + x'_p with alpha = (tk-tp)/(tm-tp). */
  private def interpolate(target: TimePoint, p: TimePoint, m: TimePoint): Unit = {
    val alpha = (target.t - p.t) / (m.t - p.t)
    var l = 0
    while (l < target.v.length) {
      target.v(l) = alpha * (m.v(l) - p.v(l)) + p.v(l)
      l += 1
    }
  }
}
