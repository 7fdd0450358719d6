package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core._
import repro.spark.StreamingCleaner

/** `fleet-stream`: `StreamingCleaner.clean` (MTCSC-L) over a memory stream
  * of 64 `gpsWalk` keys, as a closed loop with one client: add a
  * micro-batch of 16 in-order points per key, wait until the query has
  * processed it, then add the next. Per-trigger and state-store costs
  * dominate; the kernel is almost free and the batch path is not used.
  * At the end one far-future sentinel row per key closes every window.
  */
object FleetStream extends Workload {
  val Keys = 64
  val PerBatch = 16
  val WarmBatches = 15
  /** Timed micro-batches per second of `--seconds`: a fixed count, so the
    * streamed data, and with it the quality metrics, depend on the seed only.
    */
  val BatchesPerSecond = 4

  final case class Inputs(spark: SparkSession, keys: Seq[Fleet.Key],
                          input: MemoryStream[SeriesRow], query: StreamingQuery, sink: String)

  def run(ctx: Ctx, report: Report, checks: Checks): Unit = {
    val timedBatches = BatchesPerSecond * ctx.seconds
    val setup = new Setup
    var started = 0
    val in = setup.repeat(2) { s =>
      val spark = Fleet.session(s, ctx)
      val keys = Fleet.generate(s, ctx.seed, Seq.fill(Keys)(PerBatch * (WarmBatches + timedBatches)))
      started += 1
      val sink = s"perfbench_stream_$started"
      val (input, query) = s.phase("to_ds")(Trace.span("spark", "StreamingCleaner.clean.start") {
        import spark.implicits._
        implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
        val input = MemoryStream[SeriesRow]
        val query = StreamingCleaner.clean(input.toDS(), Fleet.Sc)
          .writeStream.format("memory").queryName(sink).outputMode("append").start()
        (input, query)
      })
      Inputs(spark, keys, input, query, sink)
    }(i => { i.query.stop(); i.spark.stop() })
    val spark = in.spark
    val counters = new GroupCounters
    if (ctx.trace) spark.sparkContext.addSparkListener(counters)

    def rows(b: Int): Seq[SeriesRow] = in.keys.flatMap { k =>
      (b * PerBatch until (b + 1) * PerBatch).map(i => SeriesRow(k.id, k.dirty(i).t, k.dirty(i).v.toSeq))
    }
    val batch = new Op[Unit]("microbatch", Keys * PerBatch, () => (), _ => Verdict.Ok)
    var fed = 0
    def feed(timed: Boolean): Unit = {
      val data = rows(fed)
      Trace.newRep()
      val t0 = System.nanoTime()
      Trace.span("bench", "rep.microbatch") {
        Trace.span("spark", "MemoryStream.addData")(in.input.addData(data))
        Trace.span("spark", "StreamingQuery.processAllAvailable")(in.query.processAllAvailable())
      }
      val ns = System.nanoTime() - t0
      fed += 1
      if (timed) (if (Trace.enabled) batch.traced else batch.untraced).add(ns)
    }
    (1 to WarmBatches).foreach(_ => feed(timed = false))
    // Measured once the query holds state for every key and sits idle;
    // straight after start its threads are still allocating.
    val heapMb = Main.liveHeapMb()
    if (ctx.trace) { counters.drain(spark); counters.reset() }
    val warmProgress = in.query.recentProgress.length
    val start = System.nanoTime()
    try {
      // The time limit only guards against a far slower program.
      while (fed < WarmBatches + timedBatches && (System.nanoTime() - start) / 1e9 < 3 * ctx.seconds) {
        Trace.enabled = ctx.trace && fed % 2 == 1
        feed(timed = true)
      }
    } catch {
      case scala.util.control.NonFatal(e) => checks.threw("microbatch", Keys * PerBatch, e)
    }
    Trace.enabled = ctx.trace
    Runner.summary(batch)
    val progress = in.query.recentProgress.drop(warmProgress)
    val fedPoints = fed * PerBatch
    val emittedBeforeSentinel = spark.table(in.sink).count()
    val held = Keys.toLong * fedPoints - emittedBeforeSentinel

    val lastT = in.keys.map(_.dirty(fedPoints - 1).t).max
    in.input.addData(in.keys.map(k => SeriesRow(k.id, lastT + 1e6 * Fleet.Sc.w, k.dirty(fedPoints - 1).v.toSeq)))
    in.query.processAllAvailable()

    val out: Map[Long, Array[TimePoint]] = Trace.span("spark", "memory sink collect") {
      import spark.implicits._
      spark.table(in.sink).as[SeriesRow].collect().filter(_.t <= lastT).groupBy(_.seriesId)
        .map { case (id, rs) => id -> SeriesRow.toPoints(rs.toSeq) }
    }
    val fedKeys = in.keys.map(k => k.copy(dirty = k.dirty.take(fedPoints), truth = k.truth.take(fedPoints)))
    val ref = fedKeys.map(k => k.id -> MtcscL(Fleet.Sc).clean(k.dirty)).toMap
    val verdict = fedKeys.foldLeft(Verdict.sameKeys(out, ref)) { (v, k) =>
      v ++ out.get(k.id).map(Verdict.sound(_, Fleet.Sc)).getOrElse(Verdict.Ok)
    }
    checks.rep("stream output", Keys.toLong * fedPoints, verdict.bad, verdict.detail)

    val lRmse = Fleet.pooledRmse(out, fedKeys.map(k => k.id -> k.truth).toMap)
    val perS = batch.pointsPerS
    report("setup_s") = setup.totalS
    report("live_heap_mb") = heapMb
    report("clean_points_per_s") = perS
    report("l_points_per_s") = perS
    report("clean_rmse") = lRmse
    report("l_rmse") = lRmse

    report("data.generate_s") = setup.phaseS("data")
    report("eval.capture_s") = setup.phaseS("eval")
    report("spark.session_s") = setup.phaseS("session")
    report("spark.to_ds_s") = setup.phaseS("to_ds")
    if (ctx.trace) {
      report("bench.trace_overhead_share") = Runner.traceOverhead(Seq(batch))
      val ms = batch.untraced.values.map(_ / 1e6)
      report("spark.stream.microbatch_p50_ms") = Stats.median(ms)
      Stats.tail(ms).foreach { case (pct, v) =>
        report("spark.stream.microbatch_tail_pct") = pct
        report("spark.stream.microbatch_tail_ms") = v
      }
      report("spark.stream.microbatches") = ms.size
      def part(key: String) = Stats.median(progress.toSeq.map(p =>
        Option(p.durationMs.get(key)).map(_.doubleValue).getOrElse(0.0)))
      report("spark.stream.trigger_ms") = part("triggerExecution")
      report("spark.stream.add_batch_ms") = part("addBatch")
      report("spark.stream.wal_commit_ms") = part("walCommit")
      report("spark.stream.commit_offsets_ms") = part("commitOffsets")
      report("spark.stream.query_planning_ms") = part("queryPlanning")
      counters.drain(spark)
      report("spark.stream.tasks_per_batch") =
        counters(in.query.runId.toString).tasks.toDouble / math.max(1, progress.length)
      progress.lastOption.flatMap(_.stateOperators.headOption).foreach { st =>
        report("spark.stream.state_rows") = st.numRowsTotal.toDouble
        report("spark.stream.state_bytes") = st.memoryUsedBytes.toDouble
      }
      report("spark.stream.held_points") = held.toDouble
      report("spark.stream.advance_ns_per_point") =
        Runner.medianOf(1, 2)(fedKeys.foreach(k => replay(k.dirty))) * 1e9 / (Keys.toLong * fedPoints)
      Fleet.coreLoop(fedKeys, report)
    }
  }

  /** The same micro-batches through `StreamingCleaner.advance` in process. */
  private def replay(dirty: Array[TimePoint]): Unit = {
    var prev: Option[TimePoint] = None
    var pending = Vector.empty[TimePoint]
    dirty.grouped(PerBatch).foreach { chunk =>
      val (_, p, rest) = Trace.span("spark", "StreamingCleaner.advance")(
        StreamingCleaner.advance(Fleet.Sc, prev, pending ++ chunk, endOfStream = false))
      prev = p; pending = rest
    }
  }
}
