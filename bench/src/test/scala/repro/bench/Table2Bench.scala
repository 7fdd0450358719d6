package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Experiments

/** Table 2 — dataset summary (size, #dim, error, #series), measured from
  * the synthetic generators at the paper's sizes.
  */
class Table2Bench extends AnyFunSuite {

  test("Table 2: dataset summary") {
    val rows = Experiments.table2(full = true)
    Golden.printed("table2", "== Table 2: Summary of datasets ==\n" + Experiments.formatTable2(rows))

    val byName = rows.map(r => r.name -> r).toMap
    // paper sizes/dims reproduced exactly
    assert(byName("Stock").size == 12000 && byName("Stock").dims == 1)
    assert(byName("ILD").size == 43000 && byName("ILD").dims == 3)
    assert(byName("ECG").size == 94000 && byName("ECG").dims == 32)
    assert(byName("GPS(Walk)").size == 11000 && byName("GPS(Walk)").dims == 2)
    assert(byName("GPS(Mixed)").size == 8000 && byName("GPS(Mixed)").dims == 2)
    assert(byName("ArrowHead").size == 251 && byName("ArrowHead").nSeries == 211)
    assert(byName("AtrialFib").size == 640 && byName("AtrialFib").nSeries == 30)
    assert(byName("DSR").size == 345 && byName("DSR").nSeries == 16)
    assert(byName("SWJ").size == 2500 && byName("SWJ").nSeries == 27)
    // TAO is generated at 100k (bench scale) instead of the paper's 568k
    assert(byName("Tao").size >= 100000 && byName("Tao").dims == 3)
  }
}
