package repro.spark

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core._
import repro.data.TimeSeriesGen

/** The Spark batch path layer by layer: each op of the benchmark fleet
  * (one gpsWalk key of 200,000 points and 192 of 2,000, 2-D, under
  * Table 4's walking constraint) split into
  *
  *  - planning: the op's time before and between its stages
  *    (analysis, optimisation, code generation, adaptive re-planning);
  *  - map stage: the stages of shuffle-map tasks, submission to completion;
  *  - reduce stage: the stages of result tasks, likewise;
  *  - result fetch: from the last stage's completion until the collect
  *    returns its blocks (or `count` its number);
  *  - merge: `SparkCleaner.mergeByKey` over the collected blocks.
  *
  * L and C are `clean` + `collectSeries`; detect is the flagged count of
  * `violations(toFlatDF(…))`. A `SparkListener` scoped by job group times
  * the stages. Every op runs `Warm` untimed rounds, then `Reps` timed ones,
  * round robin, on fixed seeds; each phase reports its median. The host's
  * speed drifts, so nothing here asserts a time: the only check is that
  * every rep repeats the first rep's output.
  */
class SparkPathBench extends SparkSpec {
  import SparkPathBench.Phases

  private val Warm = 2
  private val Reps = 5
  private val Sc = SpeedConstraint(1.6, 30.0)

  /** Each job group's stages: (submitted, completed) in epoch ms, and
    * whether their tasks were shuffle-map tasks.
    */
  private object Stages extends SparkListener {
    val group = new ConcurrentHashMap[Int, String]
    val span = new ConcurrentHashMap[Int, (Long, Long)]
    val map = ConcurrentHashMap.newKeySet[Int]()
    @volatile var barrier: CountDownLatch = new CountDownLatch(1)

    override def onJobStart(e: SparkListenerJobStart): Unit =
      Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
        if (g == "barrier") barrier.countDown() else e.stageIds.foreach(group.put(_, g))
      }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
      val s = e.stageInfo
      for (a <- s.submissionTime; b <- s.completionTime) span.put(s.stageId, (a, b))
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      if (e.taskType == "ShuffleMapTask") map.add(e.stageId)

    /** Waits until every event of the jobs so far has arrived: the bus
      * delivers in order, so a later job's start comes after them.
      */
    def drain(): Unit = {
      barrier = new CountDownLatch(1)
      val sc = spark.sparkContext
      sc.setJobGroup("barrier", "barrier")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      assert(barrier.await(30, TimeUnit.SECONDS))
    }

    /** (first submission, last completion, map ms, reduce ms) of a group. */
    def of(g: String): (Long, Long, Long, Long) = {
      val ids = group.asScala.collect { case (id, `g`) if span.containsKey(id) => id }.toArray
      val (m, r) = ids.partition(map.contains)
      def ms(xs: Array[Int]) = xs.map { id => val (a, b) = span.get(id); b - a }.sum
      (ids.map(span.get(_)._1).min, ids.map(span.get(_)._2).max, ms(m), ms(r))
    }
  }

  /** One op: `fetch` runs its jobs and returns what they collect, `merge`
    * turns that into the op's output.
    */
  final class Op[R, O](val name: String, fetch: () => R, merge: R => O, same: (O, O) => Boolean) {
    val phases = scala.collection.mutable.ArrayBuffer.empty[Phases]
    private var first: Option[O] = None
    private var reps = 0

    def run(): Unit = {
      reps += 1
      val group = s"$name-$reps"
      val sc = spark.sparkContext
      val t0 = System.currentTimeMillis()
      sc.setJobGroup(group, group)
      val fetched = try fetch() finally sc.clearJobGroup()
      val t1 = System.currentTimeMillis()
      val m0 = System.nanoTime()
      val out = merge(fetched)
      val mergeMs = (System.nanoTime() - m0) / 1000000
      Stages.drain()
      val (submitted, completed, mapMs, reduceMs) = Stages.of(group)
      phases += Phases(t1 - t0 + mergeMs, (t1 - t0) - mapMs - reduceMs - (t1 - completed), mapMs, reduceMs,
        t1 - completed, mergeMs)
      assert(submitted >= t0 && completed <= t1, s"$name: stages outside the op")
      first match {
        case None => first = Some(out)
        case Some(f) => assert(same(out, f), s"$name: rep $reps differs from the first")
      }
    }

    def median(f: Phases => Long): Long = phases.map(f).sorted.apply(phases.size / 2)
  }

  private def sameSeries(a: Map[Long, Array[TimePoint]], b: Map[Long, Array[TimePoint]]): Boolean =
    a.keySet == b.keySet && a.forall { case (id, xs) =>
      val ys = b(id)
      xs.length == ys.length && xs.indices.forall(i =>
        java.lang.Double.compare(xs(i).t, ys(i).t) == 0 && java.util.Arrays.equals(xs(i).v, ys(i).v))
    }

  test("Spark batch path: planning, map, reduce, fetch and merge of L, C and detect on the fleet") {
    val sizes = 200000 +: Seq.fill(192)(2000)
    val fleet = sizes.zipWithIndex.map { case (n, i) => i.toLong -> TimeSeriesGen.gpsWalk(n, seed = 1000 + 2 * i).dirty }
    val ds = SparkCleaner.toDS(spark, fleet)
    def cleanOp(name: String, cleaner: Cleaner) = new Op[Array[SparkCleaner.Block], Map[Long, Array[TimePoint]]](
      name, () => SparkCleaner.collectBlocks(SparkCleaner.clean(ds, cleaner)), SparkCleaner.mergeByKey, sameSeries)
    val detect = new Op[Long, Long]("detect", () =>
      SparkCleaner.violations(SparkCleaner.toFlatDF(ds, 2), 2, Sc.s).filter(col("violation") === 1).count(),
      identity, _ == _)
    val ops = Seq(cleanOp("L", MtcscL(Sc)), cleanOp("C", MtcscC(Sc)), detect)

    spark.sparkContext.addSparkListener(Stages)
    try {
      for (_ <- 0 until Warm; op <- ops) op.run()
      ops.foreach(_.phases.clear())
      for (_ <- 0 until Reps; op <- ops) op.run()
    } finally spark.sparkContext.removeSparkListener(Stages)

    val rt = Runtime.getRuntime
    val conf = spark.conf
    println(s"== Spark batch path, fleet of ${sizes.length} gpsWalk keys (${sizes.sum} points): ms per op " +
      s"(${rt.availableProcessors} cores, max heap ${rt.maxMemory >> 20} MB, ${spark.sparkContext.master}, " +
      s"${conf.get("spark.sql.shuffle.partitions")} shuffle partitions; median of $Reps after $Warm warm rounds) ==")
    println(f"${"op"}%-7s ${"total"}%7s ${"planning"}%9s ${"map"}%7s ${"reduce"}%7s ${"fetch"}%7s ${"merge"}%7s")
    for (op <- ops)
      println(f"${op.name}%-7s ${op.median(_.total)}%7d ${op.median(_.planning)}%9d ${op.median(_.map)}%7d " +
        f"${op.median(_.reduce)}%7d ${op.median(_.fetch)}%7d ${op.median(_.merge)}%7d")
  }
}

object SparkPathBench {
  final case class Phases(total: Long, planning: Long, map: Long, reduce: Long, fetch: Long, merge: Long)
}
