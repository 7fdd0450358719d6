package repro.core

/** MTCSC-G — global optimal repair (Algorithm 1).
  *
  * Finds the longest subsequence whose consecutive points are pairwise
  * compatible with the speed constraint (an extension of the longest
  * increasing subsequence problem); every point off that chain is in the
  * FixList and repaired by interpolating between its nearest preceding
  * and succeeding clean points (formula (6)).
  *
  * Compatibility here is the *pure* speed test `d <= s * dt` with no
  * window exemption, matching how the paper's algorithms use satisfy.
  * (If pairs beyond the window were treated as unconstrained — a literal
  * reading of formulation (3) — a keep-set could place a fix point
  * within `w` of two mutually-unconstrained anchors whose candidate
  * balls do not intersect, making the repair infeasible; the pure test
  * excludes that case and makes interpolation provably sound, see
  * DESIGN.md.)
  */
final case class MtcscG(sc: SpeedConstraint) extends Cleaner {
  override def name: String = "MTCSC-G"

  override protected def repair(xs: Array[TimePoint], out: Array[TimePoint]): Unit =
    if (xs.length > 1) MtcscG.repairInto(out, xs, MtcscG.fixList(xs, sc))
}

object MtcscG {

  /** The paper's Algorithm 1, the longest-compatible-chain DP, with an
    * exact pruning. Returns the sorted indices of points that must be
    * fixed (FixList).
    *
    * `dp(i)` is the longest chain ending at i and `pre(i)` its
    * predecessor: the *smallest* compatible j reaching the best
    * `dp(j) + 1`, the tie-break of the plain forward scan over j. Here j
    * runs downward from i - 1 and a compatible j with
    * `dp(j) + 1 >= dp(i)` is taken, so ties move to smaller j. `prefMax(j)
    * = max dp[0..j]` bounds every chain through a j' <= j, so the scan
    * stops once `prefMax(j) + 1 < dp(i)`: no earlier j can reach, let
    * alone tie, the best. On mostly clean data a point's chain is found a
    * few steps back and the DP is near linear. The worst case is still
    * O(Dn²): a point compatible with nothing before it (dense errors)
    * scans all of its predecessors.
    */
  def fixList(xs: Array[TimePoint], sc: SpeedConstraint): Array[Int] = {
    val n = xs.length
    val dp = new Array[Int](n)
    val prefMax = new Array[Int](n)
    val pre = new Array[Int](n)
    var maxLen = 0
    var endIdx = 0
    var i = 0
    while (i < n) {
      var best = 1
      var from = -1
      var j = i - 1
      while (j >= 0 && prefMax(j) + 1 >= best) {
        if (dp(j) + 1 >= best && sc.speedOk(xs(i), xs(j))) {
          best = dp(j) + 1
          from = j
        }
        j -= 1
      }
      dp(i) = best
      pre(i) = from
      prefMax(i) = if (i == 0) best else math.max(prefMax(i - 1), best)
      if (best > maxLen) { maxLen = best; endIdx = i }
      i += 1
    }
    val fixes = new Array[Int](n - maxLen)
    var f = fixes.length
    var chain = endIdx
    var k = n - 1
    while (k >= 0) {
      if (k == chain) chain = pre(k)
      else { f -= 1; fixes(f) = k }
      k -= 1
    }
    fixes
  }

  /** Interpolation repair (formula (6)) of every FixList point between its
    * nearest clean neighbours, into `out`, a copy of `xs`; clean points
    * stay unchanged.
    */
  private def repairInto(out: Array[TimePoint], xs: Array[TimePoint], fixes: Array[Int]): Unit = {
    if (fixes.isEmpty) return
    val isFix = new Array[Boolean](xs.length)
    var f = 0
    while (f < fixes.length) { isFix(fixes(f)) = true; f += 1 }
    f = 0
    while (f < fixes.length) {
      val i = fixes(f)
      var p = i - 1
      while (p >= 0 && isFix(p)) p -= 1
      var m = i + 1
      while (m < xs.length && isFix(m)) m += 1
      if (p >= 0) {
        if (m < xs.length) TimePoint.interpolate(out(i), xs(p), xs(m))
        else System.arraycopy(xs(p).v, 0, out(i).v, 0, out(i).v.length)
      } else if (m < xs.length) System.arraycopy(xs(m).v, 0, out(i).v, 0, out(i).v.length)
      // else a single-point series: nothing to anchor on
      f += 1
    }
  }
}
