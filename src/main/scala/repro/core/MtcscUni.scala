package repro.core

/** MTCSC-Uni — MTCSC-C applied to every dimension independently
  * (Section 5.3): the paper's recommended variant when errors occur in
  * dimensions separately. Each dimension carries its own constraint, and
  * runs C's batch run in turn over one univariate series and its repair.
  */
final case class MtcscUni(scs: Array[SpeedConstraint]) extends Chunked.Online {
  override def name: String = "MTCSC-Uni"

  private[core] override def steps(xs: Array[TimePoint]): Long = scs.length * super.steps(xs)

  private[core] override def repair(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int]): Unit = {
    Cleaner.requirePerDimension(xs, scs.length, "constraint")
    val d = scs.length
    val raw = new Array[TimePoint](xs.length)
    val rep = new Array[TimePoint](xs.length)
    // Pass l writes dimension l - 1's repair back and fills both series with dimension l.
    for (l <- 0 to d) {
      Chunked.forkJoin(bounds.length - 1) { c =>
        var i = if (c == 0) 0 else bounds(c)
        while (i < bounds(c + 1)) {
          if (l == 0) { raw(i) = TimePoint.uni(xs(i).t, 0); rep(i) = TimePoint.uni(xs(i).t, 0) }
          else out(i).v(l - 1) = rep(i).v(0)
          if (l < d) { raw(i).v(0) = xs(i).v(l); rep(i).v(0) = xs(i).v(l) }
          i += 1
        }
      }
      if (l < d) Chunked.repair(raw, rep, bounds, scs(l), (_, _) => new MtcscC.Run(scs(l)))
    }
  }
}
