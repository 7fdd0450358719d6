package repro.perfbench

import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.{Harness, Metrics}

/** `tao-kernel`: the in-process `Cleaner.clean` entry point that sweeps and
  * figure jobs use, on TAO at the paper's 568,000 x 3 with 10% `Together`
  * errors. The core layer does all the work and Spark none, so kernel
  * changes show here at full size and Spark changes should not show.
  * MTCSC-G is quadratic and runs on the first 20,000 points only.
  */
object TaoKernel extends Workload {
  val Points = 568000
  val GPoints = 20000
  val Window = 10.0
  val ErrorRate = 0.10

  final case class Inputs(truth: Array[TimePoint], dirty: Array[TimePoint], cfg: Harness.Config)

  def run(ctx: Ctx, report: Report, checks: Checks): Unit = {
    val setup = new Setup
    val in = setup.repeat(2) { s =>
      val (truth, dirty) = s.phase("data") {
        val truth = Trace.span("data", "TimeSeriesGen.tao")(TimeSeriesGen.tao(Points, ctx.seed))
        val dirty = Trace.span("data", "ErrorInjector.inject")(
          ErrorInjector.inject(truth, ErrorRate, ErrorInjector.Together, ctx.seed + 1))
        (truth, dirty)
      }
      val cfg = s.phase("eval")(Trace.span("eval", "Harness.configFrom")(Harness.configFrom(truth, Window)))
      Inputs(truth, dirty, cfg)
    }(_ => ())
    val heapMb = Main.liveHeapMb()

    val sc = in.cfg.sc
    final case class Method(key: String, cleaner: Cleaner, dirty: Array[TimePoint],
                            truth: Array[TimePoint], sound: Boolean)
    val methods = Seq(
      Method("g", MtcscG(sc), in.dirty.take(GPoints), in.truth.take(GPoints), sound = true),
      Method("l", MtcscL(sc), in.dirty, in.truth, sound = true),
      Method("c", MtcscC(sc), in.dirty, in.truth, sound = true),
      Method("a", MtcscA(sc), in.dirty, in.truth, sound = false),
      Method("uni", MtcscUni(in.cfg.uniScs), in.dirty, in.truth, sound = false),
    )
    // Warm the JIT on short prefixes, then once on a quarter of the input.
    for (m <- methods; _ <- 1 to 3) m.cleaner.clean(m.dirty.take(m.dirty.length / 20))
    methods.foreach(m => m.cleaner.clean(m.dirty.take(m.dirty.length / 4)))

    val ops = methods.map { m =>
      var ref: Array[TimePoint] = null
      new Op[Array[TimePoint]](m.key, m.dirty.length,
        () => Trace.span("core", s"${m.cleaner.name}.clean")(m.cleaner.clean(m.dirty)),
        out => {
          if (ref == null) ref = out
          Verdict.same(out, ref) ++ Verdict.shape(out, m.dirty) ++
            (if (m.sound) Verdict.sound(out, sc) else Verdict.Ok)
        })
    }
    Runner.run(ops, checks, ctx.seconds, minReps = if (ctx.trace) 2 else 3, alternate = ctx.trace, roundS = 0.5)

    val rmse = methods.zip(ops).map { case (m, op) =>
      m.key -> Trace.span("eval", "Metrics.rmse")(Metrics.rmse(op.first.get, m.truth))
    }.toMap
    report("setup_s") = setup.totalS
    report("live_heap_mb") = heapMb
    report("clean_points_per_s") = Stats.geomean(ops.map(_.pointsPerS))
    report("l_points_per_s") = ops.find(_.name == "l").get.pointsPerS
    report("clean_rmse") = Stats.geomean(rmse.values)
    report("l_rmse") = rmse("l")

    report("data.generate_s") = setup.phaseS("data")
    report("eval.capture_s") = setup.phaseS("eval")
    for ((m, op) <- methods.zip(ops)) {
      report(s"core.${m.key}.ns_per_point") = op.untraced.medianNs / op.points
      report(s"core.${m.key}.alloc_bytes_per_point") = op.allocBytes.toDouble / op.points
      report(s"core.${m.key}.repairs") = Metrics.repairCount(op.first.get, m.dirty)
    }
    if (ctx.trace) report("bench.trace_overhead_share") = Runner.traceOverhead(ops)
  }
}
