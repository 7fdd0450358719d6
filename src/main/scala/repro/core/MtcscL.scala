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
    var k = 1
    while (k < xs.length) {
      MtcscL.step(out, xs, k, xs.length, sc, closed = true)
      k += 1
    }
    out
  }
}

object MtcscL {

  /** The per-point decision, shared by the batch kernel and the streaming
    * operator: repairs `out(k)` (a copy of `xs(k)`) from the previous
    * repair `out(k-1)` and the raw successors `xs[k+1, n)`. A scan that
    * runs off `n` falls back to the previous repair when `closed`;
    * otherwise a compatible successor may still arrive inside the window,
    * so `out(k)` is left as is and the result is false.
    */
  def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, n: Int,
           sc: SpeedConstraint, closed: Boolean): Boolean = {
    val p = out(k - 1)
    if (sc.speedOk(xs(k), p)) true
    else {
      val last = xs(k).t + sc.w
      var i = k + 1
      while (i < n && xs(i).t <= last && !sc.speedOk(xs(i), p)) i += 1
      if (i < n && xs(i).t <= last) { TimePoint.interpolate(out(k), p, xs(i)); true }
      else if (i < n || closed) { Array.copy(p.v, 0, out(k).v, 0, p.v.length); true }
      else false
    }
  }
}
