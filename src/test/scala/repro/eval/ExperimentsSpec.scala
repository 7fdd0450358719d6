package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}

class ExperimentsSpec extends AnyFunSuite {

  test("table2 small-scale returns all ten datasets") {
    val rows = Experiments.table2(full = false)
    assert(rows.size == 10)
    assert(rows.map(_.name).distinct.size == 10)
    assert(rows.forall(r => r.size > 0 && r.dims > 0 && r.nSeries > 0))
  }

  test("formatTable2 renders a header plus one line per dataset") {
    val s = Experiments.formatTable2(Experiments.table2(full = false))
    assert(s.linesIterator.size == 11)
  }

  test("formatTable3 lists the 13 methods") {
    assert(Experiments.formatTable3().linesIterator.size == 14)
  }

  test("runLocal prepends the Dirty row and scores each cleaner") {
    val truth = TimeSeriesGen.stock(300)
    val dirty = ErrorInjector.inject(truth, 0.1, ErrorInjector.Together, 1)
    val sc = Harness.configFrom(truth, 5.0).sc
    val rows = Experiments.runLocal(Seq(MtcscC(sc), MtcscL(sc)), dirty, truth)
    assert(rows.map(_.method) == Seq("Dirty", "MTCSC-C", "MTCSC-L"))
    assert(rows.head.rmse > 0 && rows.head.repairCount == 0)
    assert(rows(1).rmse < rows.head.rmse)
  }

  test("averageRows averages per method across seeds") {
    def row(m: String, rmse: Double, count: Int) =
      Harness.ResultRow(m, rmse, 0.0, count, 0.0, 10)
    val avg = Experiments.averageRows(Seq(
      Seq(row("A", 1.0, 2), row("B", 3.0, 4)),
      Seq(row("A", 3.0, 4), row("B", 5.0, 6))))
    assert(avg.map(_.method) == Seq("A", "B"))
    assert(avg.head.rmse == 2.0 && avg.head.repairCount == 3)
    assert(avg(1).rmse == 4.0)
  }

  test("errorRateSweep produces one SweepRow per rate with Dirty RMSE growing") {
    val truth = TimeSeriesGen.stock(500)
    val sweep = Experiments.errorRateSweep(truth, Seq(0.05, 0.2),
      ErrorInjector.Together, Seq(1L),
      (cfg, _) => Seq(MtcscC(cfg.sc)))
    assert(sweep.map(_.x) == Seq(0.05, 0.2))
    val d1 = sweep.head.rows.find(_.method == "Dirty").get.rmse
    val d2 = sweep.last.rows.find(_.method == "Dirty").get.rmse
    assert(d2 > d1)
  }

  test("dataSizeSweep produces one SweepRow per size") {
    val sweep = Experiments.dataSizeSweep(TimeSeriesGen.stock(_), Seq(200, 400),
      0.1, ErrorInjector.Together, Seq(1L), (cfg, _) => Seq(MtcscL(cfg.sc)))
    assert(sweep.map(_.x) == Seq(200.0, 400.0))
    sweep.foreach(r => assert(r.rows.size == 2))
  }

  test("dimensionSweep covers the requested dimensions") {
    val sweep = Experiments.dimensionSweep(400, Seq(2, 4), 0.1, Seq(1L))
    assert(sweep.map(_.x) == Seq(2.0, 4.0))
    for (row <- sweep; r <- row.rows if r.method != "Dirty")
      assert(r.rmse < row.rows.head.rmse * 2)
  }

  test("formatSweep renders every rate block") {
    val truth = TimeSeriesGen.stock(200)
    val sweep = Experiments.errorRateSweep(truth, Seq(0.1), ErrorInjector.Together,
      Seq(1L), (cfg, _) => Seq(MtcscL(cfg.sc)))
    val s = Experiments.formatSweep("title", "e", sweep)
    assert(s.contains("== title ==") && s.contains("e = 0.10") && s.contains("MTCSC-L"))
  }

  test("adaptiveTransportation covers the three modes (small n)") {
    val res = Experiments.adaptiveTransportation(n = 1200)
    assert(res.map(_._1) == Seq("walking", "running", "cycling"))
    for ((_, rows) <- res) assert(rows.map(_.method).contains("MTCSC-A"))
  }

  test("applications returns six variants for each of the four datasets") {
    val rows = Experiments.applications(rate = 0.05, seeds = Seq(1L))
    assert(rows.map(_.dataset).distinct.size == 4)
    for (ds <- rows.map(_.dataset).distinct) {
      val vs = rows.filter(_.dataset == ds).map(_.variant)
      assert(vs == Seq("Clean", "Dirty", "MTCSC", "SCREEN", "LsGreedy", "EWMA"))
    }
    rows.foreach(r => assert(r.f1 >= 0 && r.f1 <= 1 && r.ri >= 0 && r.ri <= 1))
  }

  private def printed(args: String*): String = {
    val out = new java.io.ByteArrayOutputStream()
    Console.withOut(out)(Experiments.main(args.toArray))
    out.toString
  }

  test("main table2 --small prints the dataset table") {
    val s = printed("table2", "--small")
    assert(s.contains("Stock") && s.contains("GPS(Walk)") && s.contains("SWJ"))
  }

  test("main table3 prints the method table") {
    val s = printed("table3")
    assert(s.contains("MTCSC-G") && s.contains("HoloClean") && s.contains("CAE-M"))
  }

  test("main rejects an unknown or missing report, listing the nine reports") {
    for (args <- Seq(Seq("table5"), Seq.empty[String])) {
      val e = intercept[IllegalArgumentException](printed(args: _*))
      for (name <- Seq("table2", "table3", "table4", "stock-rate", "ild-rate", "ild-size", "ecg-dim", "adaptive", "apps"))
        assert(e.getMessage.contains(name), e.getMessage)
    }
  }
}
