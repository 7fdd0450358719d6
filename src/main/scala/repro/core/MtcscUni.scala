package repro.core

/** MTCSC-Uni — MTCSC-C applied to every dimension independently
  * (Section 5.3): the paper's recommended variant when errors occur in
  * dimensions separately. Each dimension carries its own constraint.
  */
final case class MtcscUni(scs: Array[SpeedConstraint]) extends Cleaner {
  override def name: String = "MTCSC-Uni"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit = {
    Cleaner.requirePerDimension(xs, scs.length, "constraint")
    // One univariate input and output series and one scratch, refilled
    // for every dimension and run through the shared MTCSC-C kernel.
    val uni = xs.map(p => TimePoint.uni(p.t, 0.0))
    val uniOut = xs.map(p => TimePoint.uni(p.t, 0.0))
    val scratch = new MtcscC.Scratch
    var l = 0
    while (l < scs.length) {
      var i = 0
      while (i < xs.length) { uni(i).v(0) = xs(i).v(l); uniOut(i).v(0) = xs(i).v(l); i += 1 }
      MtcscC.run(uniOut, uni, scs(l), scratch)
      i = 0
      while (i < xs.length) { out(i).v(l) = uniOut(i).v(0); i += 1 }
      l += 1
    }
  }
}
