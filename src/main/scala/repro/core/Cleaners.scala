package repro.core

/** A cleaning method: takes a dirty series (sorted by t), returns a
  * repaired copy of the same length with identical timestamps.
  *
  * Implementations must not mutate the input array or its value vectors.
  * The MTCSC cleaners check their input while copying it
  * ([[TimePoint.checkedCopyOf]]) and reject a series outside the contract.
  */
trait Cleaner extends Serializable {
  /** Display name used in result tables (matches the paper's labels). */
  def name: String

  /** Repair the series. */
  def clean(xs: Array[TimePoint]): Array[TimePoint]
}

object Cleaners {
  /** Method taxonomy rows for Table 3 (dimension / process / type). */
  final case class MethodInfo(name: String, dimension: String, process: String, kind: String)

  /** The paper's Table 3, reproduced from our implementations. */
  val table3: Seq[MethodInfo] = Seq(
    MethodInfo("MTCSC-G",   "multivariate", "batch",  "constraint"),
    MethodInfo("MTCSC-L",   "multivariate", "online", "constraint"),
    MethodInfo("MTCSC-C",   "multivariate", "online", "constraint + statistical"),
    MethodInfo("MTCSC-A",   "multivariate", "online", "constraint + statistical"),
    MethodInfo("SCREEN",    "univariate",   "online", "constraint"),
    MethodInfo("SpeedAcc",  "univariate",   "online", "constraint"),
    MethodInfo("LsGreedy",  "univariate",   "online", "statistical"),
    MethodInfo("EWMA",      "univariate",   "online", "smoothing"),
    MethodInfo("RCSWS",     "multivariate", "online", "constraint + statistical"),
    MethodInfo("HTD",       "multivariate", "batch",  "constraint"),
    MethodInfo("HoloClean", "multivariate", "batch",  "machine learning"),
    MethodInfo("TranAD",    "multivariate", "online", "deep learning"),
    MethodInfo("CAE-M",     "multivariate", "online", "deep learning"),
  )
}
