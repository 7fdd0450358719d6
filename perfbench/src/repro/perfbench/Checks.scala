package repro.perfbench

import repro.core.{SpeedConstraint, TimePoint}

/** Output checks. Every timed rep adds its points to `attempted`; points a
  * check rejects, and every point of a rep that throws, add to `failed`.
  * The first failure is printed with enough detail to find it.
  */
final class Checks {
  var attempted = 0L
  var failed = 0L
  private var first: Option[String] = None

  def firstFailure: Option[String] = first

  /** Account one rep of `points` points whose checks found `bad` bad ones. */
  def rep(what: String, points: Long, bad: Long, detail: => String): Unit = {
    attempted += points
    if (bad > 0) {
      failed += math.min(points, bad)
      if (first.isEmpty) {
        first = Some(s"$what: $detail")
        Console.err.println(s"[perfbench] CHECK FAILED $what: $detail")
      }
    }
  }

  def threw(what: String, points: Long, e: Throwable): Unit =
    rep(what, points, points, s"threw ${e.getClass.getName}: ${e.getMessage}")
}

/** One check's verdict: how many points it rejected and the first reason. */
final case class Verdict(bad: Long, detail: String) {
  def ++(o: Verdict): Verdict = Verdict(bad + o.bad, if (bad > 0) detail else o.detail)
}

object Verdict {
  val Ok: Verdict = Verdict(0, "")

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  /** Bit-identical timestamps and values, point by point; a missing or
    * extra point counts as bad.
    */
  def same(got: Array[TimePoint], want: Array[TimePoint]): Verdict = {
    var bad = math.abs(got.length - want.length).toLong
    var detail = if (bad > 0) s"length ${got.length}, expected ${want.length}" else ""
    var i = 0
    while (i < math.min(got.length, want.length)) {
      val g = got(i); val w = want(i)
      var ok = bits(g.t) == bits(w.t) && g.v.length == w.v.length
      var l = 0
      while (ok && l < w.v.length) { ok = bits(g.v(l)) == bits(w.v(l)); l += 1 }
      if (!ok) {
        if (bad == 0) detail = s"point $i is $g, expected $w"
        bad += 1
      }
      i += 1
    }
    Verdict(bad, detail)
  }

  /** Every consecutive pair at most `w` apart satisfies the speed bound. */
  def sound(out: Array[TimePoint], sc: SpeedConstraint): Verdict = {
    var bad = 0L
    var detail = ""
    var i = 1
    while (i < out.length) {
      if (out(i).t - out(i - 1).t <= sc.w && !sc.speedOk(out(i - 1), out(i))) {
        if (bad == 0) detail = s"pair ${i - 1},$i breaks s=${sc.s}: ${out(i - 1)} -> ${out(i)}"
        bad += 1
      }
      i += 1
    }
    Verdict(bad, detail)
  }

  /** Same timestamps as the input and finite values. */
  def shape(out: Array[TimePoint], in: Array[TimePoint]): Verdict = {
    var bad = math.abs(out.length - in.length).toLong
    var detail = if (bad > 0) s"length ${out.length}, expected ${in.length}" else ""
    var i = 0
    while (i < math.min(out.length, in.length)) {
      if (bits(out(i).t) != bits(in(i).t) || out(i).v.exists(x => x.isNaN || x.isInfinite)) {
        if (bad == 0) detail = s"point $i is ${out(i)}, input ${in(i)}"
        bad += 1
      }
      i += 1
    }
    Verdict(bad, detail)
  }

  /** Per-key bit identity; keys missing on either side count all their points. */
  def sameKeys(got: Map[Long, Array[TimePoint]], want: Map[Long, Array[TimePoint]]): Verdict =
    (got.keySet ++ want.keySet).toSeq.sorted.foldLeft(Ok) { (acc, id) =>
      val v = (got.get(id), want.get(id)) match {
        case (Some(g), Some(w)) =>
          val s = same(g, w); s.copy(detail = s"key $id: ${s.detail}")
        case (None, Some(w)) => Verdict(w.length, s"key $id missing from output")
        case (Some(g), None) => Verdict(g.length, s"key $id not in input")
        case _ => Ok
      }
      acc ++ v
    }
}
