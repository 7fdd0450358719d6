package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Cleaners
import repro.eval.Experiments

/** Table 3 — summary of compared methods; checks the registry matches
  * the implementations that actually exist.
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: summary of compared methods") {
    Golden.printed("table3", "== Table 3: Summary of compared methods ==\n" + Experiments.formatTable3())

    val names = Cleaners.table3.map(_.name)
    assert(names.size == 13)
    assert(names.count(_.startsWith("MTCSC")) == 4)
    // every registry row has a live implementation producing that name
    import repro.core._
    import repro.baselines._
    val sc = SpeedConstraint(1.0, 5.0)
    val scs = Array(sc)
    val impls = Seq[Cleaner](MtcscG(sc), MtcscL(sc), MtcscC(sc), MtcscA(sc),
      Screen(scs), SpeedAcc(scs, Array(1.0)), LsGreedy(), Ewma(), Rcsws(),
      Htd(scs), HoloCleanLite(scs), TranAdLite(), CaeMLite())
    assert(impls.map(_.name).toSet == names.toSet)
  }
}
