package repro.core

/** MTCSC-Uni — MTCSC-C applied to every dimension independently
  * (Section 5.3): the paper's recommended variant when errors occur in
  * dimensions separately. Each dimension carries its own constraint.
  */
final case class MtcscUni(scs: Array[SpeedConstraint]) extends Chunked.Online {
  override def name: String = "MTCSC-Uni"

  private[core] override def repair(xs: Array[TimePoint], out: Array[TimePoint], bounds: Array[Int]): Unit = {
    Cleaner.requirePerDimension(xs, scs.length, "constraint")
    Chunked.repairPerDimension(xs, out, bounds, scs)
  }
}
