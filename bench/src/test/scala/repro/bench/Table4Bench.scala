package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Table 4 — GPS(Walk) with embedded consecutive errors: RMSE, repair
  * distance and repair number for Dirty + 13 methods, run through the
  * distributed Spark path. Shape checks mirror the paper's findings
  * (Section 5.4.1); paper-vs-measured numbers go to EXPERIMENTS.md.
  */
class Table4Bench extends SparkSpec {

  test("Table 4: GPS(Walk) with manually labeled ground truth") {
    val rows = Experiments.table4(spark)
    Golden.printed("table4", Experiments.formatTable4(rows))

    val by = rows.map(r => r.method -> r).toMap
    val dirty = by("Dirty").rmse

    // MTCSC-C performs best among the constraint-based family (paper: 0.3386)
    assert(by("MTCSC-C").rmse < dirty, "MTCSC-C improves over dirty")
    assert(by("MTCSC-C").rmse < by("SCREEN").rmse, "multivariate beats univariate border repair")
    assert(by("MTCSC-C").rmse < by("SpeedAcc").rmse)
    assert(by("MTCSC-C").rmse < by("LsGreedy").rmse)
    assert(by("MTCSC-C").rmse < by("RCSWS").rmse)
    assert(by("MTCSC-C").rmse < by("EWMA").rmse)

    // MTCSC-G also strong (paper: 0.4115 vs dirty 1.3553)
    assert(by("MTCSC-G").rmse < dirty / 2)

    // MTCSC-L is hurt by consecutive errors (paper: 2.1569, worse than others)
    assert(by("MTCSC-L").rmse > by("MTCSC-C").rmse)

    // EWMA changes essentially every point (paper: 99.99%)
    assert(by("EWMA").repairFraction > 0.99)

    // minimum-fix methods change few points (paper: 1.5-2.7%)
    assert(by("MTCSC-C").repairFraction < 0.08)
    assert(by("MTCSC-G").repairFraction < 0.08)

    // HTD is conservative: repairs the fewest points of the constraint family
    assert(by("HTD").repairCount < by("MTCSC-C").repairCount)

    // univariate per-dimension variant close to but not better than MTCSC-C
    assert(by("MTCSC-Uni").rmse < dirty)
  }
}
