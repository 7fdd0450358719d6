package repro.perfbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.spark.SparkCleaner

/** `fleet-batch`: the Spark batch path over a skewed fleet, one key of
  * 200,000 points and 192 keys of 2,000. The spark layer does most of the
  * work; the big key's task sets the wall time, so intra-series parallelism
  * shows only here. Violation detection reads the same rows through SQL
  * windows instead of the typed `groupByKey`, so a row-layout change that
  * helps cleaning but hurts SQL shows too.
  */
object FleetBatch extends Workload {
  val Sizes: Seq[Int] = 200000 +: Seq.fill(192)(2000)

  final case class Inputs(spark: SparkSession, keys: Seq[Fleet.Key], ds: Dataset[SeriesRow])

  def run(ctx: Ctx, report: Report, checks: Checks): Unit = {
    val setup = new Setup
    val in = setup.repeat(2) { s =>
      val spark = Fleet.session(s, ctx)
      val keys = Fleet.generate(s, ctx.seed, Sizes)
      val ds = s.phase("to_ds")(Trace.span("spark", "SparkCleaner.toDS")(
        SparkCleaner.toDS(spark, keys.map(k => k.id -> k.dirty))))
      Inputs(spark, keys, ds)
    }(_.spark.stop())
    val heapMb = Main.liveHeapMb()
    val spark = in.spark
    val counters = new GroupCounters
    if (ctx.trace) spark.sparkContext.addSparkListener(counters)

    val sc = Fleet.Sc
    val total = Fleet.points(in.keys)
    val truth = in.keys.map(k => k.id -> k.truth).toMap
    def reference(c: Cleaner) = in.keys.map(k => k.id -> c.clean(k.dirty)).toMap
    val expectedFlags = in.keys.map(k => SpeedConstraint.consecutiveSpeeds(k.dirty).count(_ > sc.s).toLong).sum

    def clean(ds: Dataset[SeriesRow], cleaner: Cleaner): Map[Long, Array[TimePoint]] = {
      val cleaned = Trace.span("spark", "SparkCleaner.clean")(SparkCleaner.clean(ds, cleaner))
      Trace.span("spark", "SparkCleaner.collectSeries")(SparkCleaner.collectSeries(cleaned))
    }
    def violations(ds: Dataset[SeriesRow]): DataFrame = {
      val flat = Trace.span("spark", "SparkCleaner.toFlatDF")(SparkCleaner.toFlatDF(ds, Fleet.Dims))
      Trace.span("spark", "SparkCleaner.violations")(SparkCleaner.violations(flat, Fleet.Dims, sc.s))
    }
    def flagged(ds: Dataset[SeriesRow]): Long =
      Trace.span("spark", "Dataset.count")(violations(ds).filter(col("violation") === 1).count())

    // Warm the JIT and Spark's code generation on a slice of the small keys,
    // twice, at a fraction of the cost of a full rep.
    val warmDs = SparkCleaner.toDS(spark, in.keys.slice(1, 49).map(k => k.id -> k.dirty))
    for (_ <- 1 to 2) { clean(warmDs, MtcscL(sc)); clean(warmDs, MtcscC(sc)); flagged(warmDs) }

    def cleanOp(m: String, cleaner: Cleaner) = {
      val ref = reference(cleaner)
      new Op[Map[Long, Array[TimePoint]]](m, total,
        () => Fleet.withGroup(spark, m)(clean(in.ds, cleaner)),
        out => in.keys.foldLeft(Verdict.sameKeys(out, ref)) { (v, k) =>
          v ++ out.get(k.id).map(Verdict.sound(_, sc)).getOrElse(Verdict.Ok)
        })
    }
    val detect = new Op[Long]("detect", total,
      () => Fleet.withGroup(spark, "detect")(flagged(in.ds)),
      n => if (n == expectedFlags) Verdict.Ok
           else Verdict(math.max(1L, math.abs(n - expectedFlags)), s"flagged $n pairs, expected $expectedFlags"))
    val l = cleanOp("l", MtcscL(sc))
    val c = cleanOp("c", MtcscC(sc))
    val ops = Seq(l, c, detect)
    // Traced runs also time each op's plan run into Spark's noop sink, to
    // split a rep into execution and collection.
    val frames: Map[String, () => DataFrame] = Map(
      "l" -> (() => SparkCleaner.clean(in.ds, MtcscL(sc)).toDF()),
      "c" -> (() => SparkCleaner.clean(in.ds, MtcscC(sc)).toDF()),
      "detect" -> (() => violations(in.ds)))
    val execOps = if (!ctx.trace) Nil else ops.map { op =>
      new Op[Unit](s"exec.${op.name}", total, () => Fleet.withGroup(spark, s"exec.${op.name}") {
        Trace.span("spark", "noop.save")(frames(op.name)().write.format("noop").mode("overwrite").save())
      }, _ => Verdict.Ok)
    }

    if (ctx.trace) { counters.drain(spark); counters.reset() }
    Runner.run(ops ++ execOps, checks, ctx.seconds, minReps = if (ctx.trace) 1 else 3,
      alternate = ctx.trace, roundS = 0)

    val lRmse = Fleet.pooledRmse(l.first.get, truth)
    val cRmse = Fleet.pooledRmse(c.first.get, truth)
    report("setup_s") = setup.totalS
    report("live_heap_mb") = heapMb
    report("clean_points_per_s") = Stats.geomean(ops.map(_.pointsPerS))
    report("l_points_per_s") = l.pointsPerS
    report("clean_rmse") = Stats.geomean(Seq(lRmse, cRmse))
    report("l_rmse") = lRmse

    report("data.generate_s") = setup.phaseS("data")
    report("eval.capture_s") = setup.phaseS("eval")
    report("spark.session_s") = setup.phaseS("session")
    report("spark.to_ds_s") = setup.phaseS("to_ds")
    if (ctx.trace) {
      report("bench.trace_overhead_share") = Runner.traceOverhead(ops)
      counters.drain(spark)
      val kernelS = Fleet.coreLoop(in.keys, report) +
        ("detect" -> Runner.medianOf(1, 2)(in.keys.foreach(k => SpeedConstraint.consecutiveSpeeds(k.dirty).count(_ > sc.s))))
      for ((op, exec) <- ops.zip(execOps)) {
        val t = counters(op.name)
        val reps = op.reps.toDouble
        val execS = Stats.median(exec.untraced.values ++ exec.traced.values) / 1e9
        val runS = t.runMs / 1e3 / reps
        val p = s"spark.${op.name}"
        report(s"$p.exec_s") = execS
        report(s"$p.collect_s") = op.medianS - execS
        report(s"$p.tasks") = t.tasks / reps
        report(s"$p.executor_run_s") = runS
        report(s"$p.executor_cpu_s") = t.cpuNs / 1e9 / reps
        report(s"$p.gc_s") = t.gcMs / 1e3 / reps
        report(s"$p.shuffle_write_bytes") = t.shuffleWrite / reps
        report(s"$p.shuffle_read_bytes") = t.shuffleRead / reps
        report(s"$p.result_bytes") = t.result / reps
        report(s"$p.max_task_s") = t.maxTaskMs / 1e3
        report(s"$p.busy_share") = runS / (op.medianS * ctx.nproc)
        report(s"$p.kernel_share") = kernelS(op.name) / runS
      }
    }
  }
}
