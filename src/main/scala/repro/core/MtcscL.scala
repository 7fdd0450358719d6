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
final case class MtcscL(sc: SpeedConstraint) extends Chunked.Online {
  override def name: String = "MTCSC-L"

  private[core] override def repair(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int]): Unit =
    Chunked.repair(xs, out, bounds, sc, (_, _) => new MtcscL.Run(sc))
}

object MtcscL {

  /** A run of Algorithm 2 under `sc`, shared by the batch kernel and the
    * streaming operator: it has no state beyond out(k-1).
    */
  private[repro] final class Run(sc: SpeedConstraint) extends Chunked.Run(sc.s) {
    /** A scan that runs off `n` falls back to the previous repair when
      * `closed`; otherwise a compatible successor may still arrive inside
      * the window, so `out(k)` is left as is and the result is false.
      */
    def step(out: Array[TimePoint], xs: Array[TimePoint], k: Int, n: Int, closed: Boolean): Boolean = {
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
}
