package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Experiments

/** Figure 16 shape — impact of cleaning on KNN classification (F1) and
  * K-means clustering (RI) over clean / dirty / repaired training data.
  */
class AppsBench extends AnyFunSuite {

  test("Figure 16 shape: classification and clustering over cleaned data") {
    val rows = Experiments.applications()
    Golden.printed("figure16", Experiments.formatApps(rows))

    for (ds <- rows.map(_.dataset).distinct) {
      val by = rows.filter(_.dataset == ds).map(r => r.variant -> r).toMap
      // cleaning recovers most of the clean-data quality (paper 5.5);
      // tolerances reflect the tiny UEA-style test sets
      assert(by("MTCSC").f1 >= by("Dirty").f1 - 0.08, s"$ds: MTCSC F1 not worse than dirty")
      assert(by("Clean").f1 >= by("Dirty").f1 - 0.08, s"$ds: clean at least dirty")
    }
    // aggregate: MTCSC repair recovers a meaningful part of the F1 gap
    def mean(v: Seq[Double]) = v.sum / v.size
    val dirtyF1 = mean(rows.filter(_.variant == "Dirty").map(_.f1))
    val mtcscF1 = mean(rows.filter(_.variant == "MTCSC").map(_.f1))
    val cleanF1 = mean(rows.filter(_.variant == "Clean").map(_.f1))
    println(f"mean F1: clean=$cleanF1%.4f dirty=$dirtyF1%.4f mtcsc=$mtcscF1%.4f")
    assert(mtcscF1 >= dirtyF1 - 0.02, "MTCSC cleaning does not hurt downstream classification")
  }
}
