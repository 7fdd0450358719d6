package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Experiments

/** Figures 14/15 shape — adaptive speed constraint on GPS(Mixed) with
  * walking -> running -> cycling mode changes, plus b / tau sensitivity.
  */
class AdaptiveBench extends AnyFunSuite {

  test("Figure 14 shape: MTCSC-A under three initial speed settings") {
    val results = Experiments.adaptiveTransportation()
    Golden.printed("figure14", Experiments.formatAdaptive(results))

    for ((mode, rows) <- results) {
      val by = rows.map(r => r.method -> r).toMap
      // MTCSC-A improves over dirty regardless of the initial setting
      assert(by("MTCSC-A").rmse < by("Dirty").rmse, s"mode=$mode")
    }
    // with a walking initial constraint, fixed-constraint methods butcher
    // the running/cycling part; MTCSC-A re-captures and wins
    val walking = results.find(_._1 == "walking").get._2.map(r => r.method -> r).toMap
    assert(walking("MTCSC-A").rmse < walking("MTCSC-C").rmse,
      "adaptive beats fixed walking constraint")
    assert(walking("MTCSC-A").rmse < walking("SCREEN").rmse)
    assert(walking("MTCSC-A").rmse < walking("EWMA").rmse)
    // fixed-constraint online cleaning with the wrong (too small) speed
    // changes many more points than the adaptive variant
    assert(walking("MTCSC-C").repairCount > walking("MTCSC-A").repairCount)
  }

  test("Figure 15 shape: sensitivity over bucket number b and threshold tau") {
    val sensitivity = Experiments.adaptiveSensitivity()
    Golden.printed("figure15", Experiments.formatSensitivity(sensitivity))
    // robust to b: spread across bucket counts stays small (paper 15(a))
    val rs = sensitivity._1.map(_._2)
    assert(rs.max / math.max(rs.min, 1e-9) < 2.0, s"b sensitivity: $rs")
  }
}
