package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.util.control.NonFatal

/** Run settings, from the command line. `out` receives the result file and
  * spans; `tmp` every scratch file Spark writes.
  */
final case class Ctx(workload: String, seed: Long, seconds: Int, trace: Boolean,
                     out: File, tmp: File, nproc: Int)

/** A workload sets up its inputs, times its ops and fills the report. */
trait Workload {
  def run(ctx: Ctx, report: Report, checks: Checks): Unit
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --out <dir> --tmp <dir>`. Prints each metric with its unit, then as the
  * last line one JSON object with `correct`, `attempted`, `failed` and
  * `metrics`. Exits 1 if any output check failed.
  */
object Main {
  val Workloads: Map[String, Workload] = Map(
    "tao-kernel" -> TaoKernel,
    "fleet-batch" -> FleetBatch,
    "fleet-stream" -> FleetStream,
  )

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val ctx = Ctx(opt("workload"), opt("seed").toLong, opt("seconds").toInt, opt("trace") == "1",
      new File(opt("out")), new File(opt("tmp")), Runtime.getRuntime.availableProcessors())
    val workload = Workloads.getOrElse(ctx.workload,
      sys.error(s"unknown workload ${ctx.workload}; known: ${Workloads.keys.toSeq.sorted.mkString(", ")}"))

    val report = new Report
    val checks = new Checks
    Trace.enabled = ctx.trace
    try workload.run(ctx, report, checks)
    catch {
      case NonFatal(e) =>
        e.printStackTrace()
        checks.threw(s"${ctx.workload} run", math.max(1L, checks.attempted), e)
    } finally SparkSession.getDefaultSession.foreach(_.stop())

    Trace.enabled = false
    report("bench.failed_share") = checks.failed.toDouble / math.max(1L, checks.attempted)
    report("bench.spans") = Trace.count
    Trace.selfSeconds.foreach { case (layer, s) => report(s"trace.$layer.self_s") = s }
    if (ctx.trace) Trace.write(new File(ctx.out, s"spans-${ctx.workload}-seed${ctx.seed}.jsonl"))

    val metrics = report.select(ctx.trace)
    val correct = checks.failed == 0 && checks.attempted > 0 &&
      metrics.forall { case (_, v, _) => !v.isNaN && !v.isInfinite }
    val env = environment(ctx)

    println(s"[perfbench] env ${obj(env.map { case (k, v) => k -> str(v) })}")
    checks.firstFailure.foreach(f => println(s"[perfbench] first failure: $f"))
    metrics.foreach { case (n, v, u) => println(f"[perfbench] $n%-40s $v%.6g $u") }
    println(s"[perfbench] attempted=${checks.attempted} failed=${checks.failed} correct=$correct")

    val metricsJson = obj(metrics.map { case (n, v, u) =>
      n -> obj(Seq("value" -> num(if (v.isNaN || v.isInfinite) 0.0 else v), "unit" -> str(u)))
    })
    val result = obj(Seq("correct" -> correct.toString, "attempted" -> checks.attempted.toString,
      "failed" -> checks.failed.toString, "metrics" -> metricsJson))
    ctx.out.mkdirs()
    val file = new PrintWriter(new File(ctx.out,
      s"result-${ctx.workload}-seed${ctx.seed}-trace${if (ctx.trace) 1 else 0}.json"), "UTF-8")
    try file.println(obj(Seq("env" -> obj(env.map { case (k, v) => k -> str(v) }),
      "first_failure" -> checks.firstFailure.map(str).getOrElse("null"), "result" -> result)))
    finally file.close()
    println(result)
    System.exit(if (correct) 0 else 1)
  }

  /** What a result depends on besides the code: recorded with every run. */
  private def environment(ctx: Ctx): Seq[(String, String)] = Seq(
    "workload" -> ctx.workload,
    "seed" -> ctx.seed.toString,
    "seconds" -> ctx.seconds.toString,
    "trace" -> (if (ctx.trace) "1" else "0"),
    "nproc" -> ctx.nproc.toString,
    "heap_max_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
    "java" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
    "spark" -> org.apache.spark.SPARK_VERSION,
    "master" -> (if (ctx.workload == "tao-kernel") "none (no Spark session)" else s"local[${ctx.nproc}]"),
    "shuffle_partitions" -> Session.shufflePartitions(ctx.nproc).toString,
    "gc" -> ManagementFactory.getGarbageCollectorMXBeans.toArray.map {
      case b: java.lang.management.GarbageCollectorMXBean => b.getName }.mkString("+"),
  )

  /** Heap in use after a full collection, in MB. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def obj(kv: Seq[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  private def num(v: Double): String = java.lang.Double.toString(v)
}
