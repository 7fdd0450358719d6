package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.TimeSeriesGen
import repro.eval.{Harness, Metrics}

/** What the two fleet workloads share: many `gpsWalk` 2-D series under
  * Table 4's walking constraint, the session set-up, pooled quality, and a
  * single-threaded loop of every kernel over all keys as the sequential
  * baseline for the Spark paths.
  */
object Fleet {
  val Sc: SpeedConstraint = SpeedConstraint(1.6, 30.0)
  val Dims = 2
  val GPoints = 20000

  /** One series; `uniScs` are its per-dimension constraints for MTCSC-Uni. */
  final case class Key(id: Long, dirty: Array[TimePoint], truth: Array[TimePoint],
                       uniScs: Array[SpeedConstraint])

  def session(s: Setup, ctx: Ctx): SparkSession =
    s.phase("session")(Trace.span("spark", "SparkSession.getOrCreate")(Session.start(ctx.tmp, ctx.nproc)))

  /** Key i of a fleet has its own seed, derived from the run's seed. */
  def generate(s: Setup, seed: Long, sizes: Seq[Int]): Seq[Key] = {
    val series = s.phase("data")(Trace.span("data", "TimeSeriesGen.gpsWalk")(
      sizes.zipWithIndex.map { case (n, i) => TimeSeriesGen.gpsWalk(n, seed * 1000 + 2 * i) }))
    s.phase("eval")(Trace.span("eval", "Harness.configFrom")(
      series.zipWithIndex.map { case (dt, i) =>
        Key(i.toLong, dt.dirty, dt.truth, Harness.configFrom(dt.truth, Sc.w).uniScs)
      }))
  }

  def points(keys: Seq[Key]): Long = keys.map(_.dirty.length.toLong).sum

  /** sqrt(sum over keys of n_k * rmse_k^2 / sum of n_k). */
  def pooledRmse(out: Map[Long, Array[TimePoint]], truth: Map[Long, Array[TimePoint]]): Double =
    Trace.span("eval", "Metrics.rmse") {
      val sq = truth.map { case (id, t) => val r = Metrics.rmse(out(id), t); r * r * t.length }.sum
      math.sqrt(sq / truth.values.map(_.length).sum)
    }

  def cleaner(method: String, k: Key): Cleaner = method match {
    case "g" => MtcscG(Sc)
    case "l" => MtcscL(Sc)
    case "c" => MtcscC(Sc)
    case "a" => MtcscA(Sc)
    case "uni" => MtcscUni(k.uniScs)
  }

  /** Per-layer core metrics from one single-threaded loop of each method
    * over every key, after a warm-up on a few small keys; MTCSC-G, being quadratic, loops over the first keys
    * of at most 20,000 points in total. Returns the loop's seconds per method.
    */
  def coreLoop(keys: Seq[Key], report: Report): Map[String, Double] = {
    val small = keys.filter(_.dirty.length <= GPoints)
    val gKeys = small.zip(small.scanLeft(0)(_ + _.dirty.length).tail).takeWhile(_._2 <= GPoints).map(_._1)
    val warmKeys = small.take(8)
    Catalog.Methods.map { m =>
      val ks = if (m == "g") gKeys else keys
      def loop(ks: Seq[Key]): Seq[Array[TimePoint]] =
        ks.map(k => Trace.span("core", s"$m.clean")(cleaner(m, k).clean(k.dirty)))
      (1 to 3).foreach(_ => loop(warmKeys))
      val a0 = Alloc.thread()
      val t0 = System.nanoTime()
      val out = loop(ks)
      val secs = (System.nanoTime() - t0) / 1e9
      val alloc = Alloc.thread() - a0
      val n = points(ks).toDouble
      report(s"core.$m.ns_per_point") = secs * 1e9 / n
      report(s"core.$m.alloc_bytes_per_point") = alloc / n
      report(s"core.$m.repairs") = ks.zip(out).map { case (k, o) => Metrics.repairCount(o, k.dirty) }.sum
      m -> secs
    }.toMap
  }

  def withGroup[A](spark: SparkSession, group: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
  }
}
