package repro.perfbench

import java.io.File
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** The benchmark's own local Spark session, with every file it writes kept
  * under `tmp`. Shuffle partitions are fixed at the core count: the value
  * alone moves streaming latency several-fold.
  */
object Session {
  def shufflePartitions(nproc: Int): Int = nproc

  def start(tmp: File, nproc: Int): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions(nproc).toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(tmp, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(tmp, "warehouse").getPath)
      .config("spark.sql.streaming.checkpointLocation", new File(tmp, "checkpoints").getPath)
      .config("spark.sql.streaming.numRecentProgressUpdates", 100000L)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Task counters per job group, from Spark's listener bus. The benchmark
  * tags each op's jobs with the op's name as job group; a streaming query's
  * jobs carry its run id.
  */
final class GroupCounters extends SparkListener {
  final class Totals {
    var jobs = 0L
    var tasks = 0L
    var runMs = 0L
    var cpuNs = 0L
    var gcMs = 0L
    var shuffleWrite = 0L
    var shuffleRead = 0L
    var result = 0L
    var maxTaskMs = 0L
  }

  private val groupOfStage = mutable.Map.empty[Int, String]
  private val groupOfJob = mutable.Map.empty[Int, String]
  private val totals = mutable.Map.empty[String, Totals]

  private def of(group: String) = totals.getOrElseUpdate(group, new Totals)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    groupOfJob(e.jobId) = g
    e.stageIds.foreach(groupOfStage(_) = g)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    groupOfJob.remove(e.jobId).foreach(g => of(g).jobs += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- groupOfStage.get(e.stageId)) {
      val t = of(g)
      t.tasks += 1
      t.maxTaskMs = math.max(t.maxTaskMs, e.taskInfo.duration)
      val m = e.taskMetrics
      if (m != null) {
        t.runMs += m.executorRunTime
        t.cpuNs += m.executorCpuTime
        t.gcMs += m.jvmGCTime
        t.result += m.resultSize
        t.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        t.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      }
    }
  }

  def apply(group: String): Totals = synchronized(of(group))

  /** Forget every total, e.g. those of warm-up jobs; call after [[drain]]. */
  def reset(): Unit = synchronized { totals.clear(); barriers = 0 }

  private var barriers = 0

  /** Block until every event posted so far has reached this listener: run
    * a one-task job and wait for its end, which the bus delivers after all
    * earlier events.
    */
  def drain(spark: SparkSession): Unit = {
    barriers += 1
    val sc = spark.sparkContext
    sc.setJobGroup("perfbench.barrier", "barrier")
    sc.parallelize(Seq(1), 1).count()
    sc.clearJobGroup()
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (apply("perfbench.barrier").jobs < barriers && System.nanoTime() < deadline) Thread.sleep(1)
  }
}
