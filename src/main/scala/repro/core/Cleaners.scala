package repro.core

/** A cleaning method: takes a dirty series, returns a repaired copy of
  * the same length with identical timestamps.
  *
  * Every method has one input contract: timestamps finite and
  * non-decreasing (duplicates allowed), values finite, one D for every
  * point. [[clean]], the one entry, checks it while copying the series
  * ([[TimePoint.checkedCopyOf]]), rejects a series outside it with an
  * [[InputContractException]] at the first bad point, and hands the input
  * and the copy to the method's [[repair]]. The input is never mutated.
  */
trait Cleaner extends Serializable {
  /** Display name used in result tables (matches the paper's labels). */
  def name: String

  /** Repair the series. */
  final def clean(xs: Array[TimePoint]): Array[TimePoint] = {
    val out = TimePoint.checkedCopyOf(xs)
    repair(xs, out)
    out
  }

  /** Repairs `out`, a checked copy of `xs`, in place; `xs` is read only. */
  protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit
}

object Cleaner {
  /** A per-dimension method takes one `what` per dimension of the series. */
  def requirePerDimension(xs: Array[TimePoint], count: Int, what: String): Unit =
    if (xs.nonEmpty) require(count == xs(0).dim, s"need one $what per dimension (${xs(0).dim}), got $count")
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
