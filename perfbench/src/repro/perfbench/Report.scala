package repro.perfbench

import scala.collection.mutable

/** Every metric the benchmark reports, with its unit. A traced run prints
  * the per-layer set and an untraced run the end-to-end set. A workload
  * that does not use a layer reports that layer's per-layer metrics as 0.
  */
object Catalog {
  val Methods: Seq[String] = Seq("g", "l", "c", "a", "uni")
  val SparkOps: Seq[String] = Seq("l", "c", "detect")

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "live_heap_mb" -> "MB",
    "clean_points_per_s" -> "points/s",
    "l_points_per_s" -> "points/s",
    "clean_rmse" -> "units",
    "l_rmse" -> "units",
  )

  val PerLayer: Seq[(String, String)] =
    Seq(
      "data.generate_s" -> "s",
      "eval.capture_s" -> "s",
      "spark.session_s" -> "s",
      "spark.to_ds_s" -> "s",
    ) ++ Methods.flatMap(m => Seq(
      s"core.$m.ns_per_point" -> "ns",
      s"core.$m.alloc_bytes_per_point" -> "bytes",
      s"core.$m.repairs" -> "count",
    )) ++ SparkOps.flatMap(op => Seq(
      s"spark.$op.exec_s" -> "s",
      s"spark.$op.collect_s" -> "s",
      s"spark.$op.tasks" -> "count",
      s"spark.$op.executor_run_s" -> "s",
      s"spark.$op.executor_cpu_s" -> "s",
      s"spark.$op.gc_s" -> "s",
      s"spark.$op.shuffle_write_bytes" -> "bytes",
      s"spark.$op.shuffle_read_bytes" -> "bytes",
      s"spark.$op.result_bytes" -> "bytes",
      s"spark.$op.max_task_s" -> "s",
      s"spark.$op.busy_share" -> "share",
      s"spark.$op.kernel_share" -> "share",
    )) ++ Seq(
      "spark.stream.microbatch_p50_ms" -> "ms",
      "spark.stream.microbatch_tail_ms" -> "ms",
      "spark.stream.microbatch_tail_pct" -> "%",
      "spark.stream.microbatches" -> "count",
      "spark.stream.trigger_ms" -> "ms",
      "spark.stream.add_batch_ms" -> "ms",
      "spark.stream.wal_commit_ms" -> "ms",
      "spark.stream.commit_offsets_ms" -> "ms",
      "spark.stream.query_planning_ms" -> "ms",
      "spark.stream.tasks_per_batch" -> "count",
      "spark.stream.advance_ns_per_point" -> "ns",
      "spark.stream.state_rows" -> "count",
      "spark.stream.state_bytes" -> "bytes",
      "spark.stream.held_points" -> "count",
    ) ++ Trace.Layers.map(l => s"trace.$l.self_s" -> "s") ++ Seq(
      "bench.trace_overhead_share" -> "share",
      "bench.spans" -> "count",
      "bench.failed_share" -> "share",
    )
}

/** Metric values set by a workload, keyed by catalogue name. */
final class Report {
  private val values = mutable.Map.empty[String, Double]
  private val units = (Catalog.EndToEnd ++ Catalog.PerLayer).toMap

  def update(name: String, value: Double): Unit = {
    require(units.contains(name), s"metric $name is not in the catalogue")
    values(name) = value
  }

  /** The selected set as (name, value, unit); per-layer gaps read 0. */
  def select(trace: Boolean): Seq[(String, Double, String)] =
    if (trace) Catalog.PerLayer.map { case (n, u) => (n, values.getOrElse(n, 0.0), u) }
    else Catalog.EndToEnd.map { case (n, u) => (n, values.getOrElse(n, Double.NaN), u) }
}
