package repro.spark

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.LongAdder
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Dataset, Encoders}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.execution.ExternalRDD
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Metrics

class SparkCleanerSpec extends SparkSpec {

  private lazy val gps = TimeSeriesGen.gpsWalk(400, seed = 3)
  private val sc2 = SpeedConstraint(2.5, 10.0)

  /** Same length, and every timestamp and value equal bit for bit. */
  private def assertBits(got: Array[TimePoint], want: Array[TimePoint], clue: Any): Unit = {
    assert(got.length == want.length, clue)
    def bits(xs: Array[TimePoint]) =
      xs.map(p => (java.lang.Double.doubleToLongBits(p.t), p.v.map(java.lang.Double.doubleToLongBits).toSeq)).toSeq
    assert(bits(got) == bits(want), clue)
  }

  private def assertSameMaps(got: Map[Long, Array[TimePoint]], want: Map[Long, Array[TimePoint]]): Unit = {
    assert(got.keySet == want.keySet)
    for (id <- want.keys) assertBits(got(id), want(id), s"series $id")
  }

  /** A random walk in D dimensions with 10% outliers, sampled at gaps of
    * 0.25-2 time units; one gap in ten is 0, a duplicate timestamp.
    */
  private def walk(n: Int, d: Int, seed: Long): Array[TimePoint] = {
    val r = new java.util.Random(seed)
    var t = 0.0
    val x = new Array[Double](d)
    Array.fill(n) {
      if (r.nextDouble() >= 0.1) t += 0.25 + 1.75 * r.nextDouble()
      for (l <- 0 until d) x(l) += r.nextGaussian()
      val v = x.clone()
      if (r.nextDouble() < 0.1) for (l <- 0 until d) v(l) += (r.nextDouble() - 0.5) * 50
      TimePoint(t, v)
    }
  }

  test("distributed clean equals sequential clean per series") {
    val seriesA = TimeSeriesGen.gpsWalk(300, seed = 1).dirty
    val seriesB = TimeSeriesGen.gpsWalk(300, seed = 2).dirty
    val ds = SparkCleaner.toDS(spark, Seq(0L -> seriesA, 1L -> seriesB))
    val out = SparkCleaner.collectSeries(SparkCleaner.clean(ds, MtcscC(sc2)))
    val seqA = MtcscC(sc2).clean(seriesA)
    val seqB = MtcscC(sc2).clean(seriesB)
    assertBits(out(0L), seqA, "series 0")
    assertBits(out(1L), seqB, "series 1")
  }

  test("distributed clean with MTCSC-G equals sequential") {
    val series = TimeSeriesGen.stock(300, seed = 5)
    val dirty = ErrorInjector.inject(series, 0.1, ErrorInjector.Together, 1)
    val sc = SpeedConstraint(2.0, 5.0)
    val ds = SparkCleaner.toDS(spark, Seq(7L -> dirty))
    val out = SparkCleaner.collectSeries(SparkCleaner.clean(ds, MtcscG(sc)))(7L)
    val seqOut = MtcscG(sc).clean(dirty)
    assertBits(out, seqOut, "series 7")
  }

  test("Spark clean is bit-identical to the kernel for G, L, C, A and Uni") {
    val sc = SpeedConstraint(1.5, 5.0)
    for (d <- 1 to 3) {
      // Twelve short keys, one 25 times longer, and a zero-length key: a
      // series with no points has no rows, so it is absent from the output.
      val series = (0L -> walk(1500, d, seed = d)) +: (1L -> Array.empty[TimePoint]) +:
        (2L until 14L).map(id => id -> walk(60, d, seed = 100 * d + id))
      val ds = SparkCleaner.toDS(spark, series)
      val cleaners = Seq(MtcscG(sc), MtcscL(sc), MtcscC(sc), MtcscA(sc, m = 20),
        MtcscUni(Array.fill(d)(sc)))
      for (cleaner <- cleaners) {
        val out = SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner))
        assert(out.keySet == series.map(_._1).toSet - 1L, s"${cleaner.name} D=$d")
        for ((id, pts) <- series if pts.nonEmpty)
          assertBits(out(id), cleaner.clean(pts), s"${cleaner.name} D=$d series $id")
      }
    }
  }

  test("three points at one timestamp repair to finite values on every path") {
    // Point 2 breaks the speed constraint against point 1 at dt = 0; its
    // compatible successor, point 3, shares that timestamp too.
    val xs = Array((0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (1.0, 0.0), (2.0, 0.0)).map { case (t, x) => TimePoint.uni(t, x) }
    val want = Seq(0.0, 0.0, 0.0, 0.0, 0.0)
    val sc = SpeedConstraint(1, 2)
    val ds = SparkCleaner.toDS(spark, Seq(4L -> xs))
    for (cleaner <- Seq(MtcscG(sc), MtcscL(sc), MtcscC(sc), MtcscA(sc), MtcscUni(Array(sc)))) {
      assert(cleaner.clean(xs).map(_.v(0)).toSeq == want, cleaner.name)
      assert(SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner))(4L).map(_.v(0)).toSeq == want,
        s"Spark ${cleaner.name}")
    }
    assert(StreamingCleaner.advance(sc, None, xs.toVector, endOfStream = true)._1.map(_.v(0)) == want)
  }

  test("toDS rejects a series whose points disagree on D, naming the series and point") {
    val good = walk(10, 2, seed = 1)
    val bad = walk(10, 2, seed = 2).updated(6, TimePoint(100.0, Array(1.0, 2.0, 3.0)))
    val e = intercept[IllegalArgumentException](SparkCleaner.toDS(spark, Seq(3L -> good, 5L -> bad)))
    assert(e.getMessage.startsWith("series 5, point 6 (t = 100.0): has 3 dimensions, point 0 has 2"), e.getMessage)
  }

  test("toDS ships at most k + n - 1 blocks, not one driver row per point") {
    val series = (0 until 4).map(i => i.toLong -> TimeSeriesGen.stock(500, seed = i))
    val plan = SparkCleaner.toDS(spark, series).queryExecution.optimizedPlan
    assert(plan.collect { case r: LocalRelation => r }.isEmpty)
    val shipped = plan.collect { case r: ExternalRDD[_] => r.rdd.collect().toSeq }.flatten
    val n = spark.sparkContext.defaultParallelism
    assert(shipped.nonEmpty && shipped.forall(_.isInstanceOf[SparkCleaner.Block]))
    assert(shipped.length <= series.length + n - 1, s"${shipped.length} blocks from ${series.length} series, $n slices")
  }

  test("toDS slices by points: no partition holds more than a slice and a tie run, and no tie run is split") {
    val n = spark.sparkContext.defaultParallelism
    val sizes = 20000 +: Seq.fill(40)(100)
    val size = (sizes.sum + n - 1) / n
    val tie = 5
    // Strictly increasing timestamps, then a run of `tie` equal ones
    // across every slice boundary that falls inside a series.
    val starts = sizes.scanLeft(0)(_ + _)
    val series = sizes.zipWithIndex.map { case (len, id) =>
      val pts = walk(len, 2, seed = 500 + id).distinctBy(_.t)
      assert(pts.length >= len / 2)
      val padded = pts ++ Array.tabulate(len - pts.length)(i => TimePoint(pts.last.t + 1 + i, Array(i.toDouble, 0.0)))
      for (k <- 1 until n; i = k * size - starts(id) if i >= 1 && i < len) {
        val from = math.max(0, i - tie / 2)
        for (j <- from until math.min(len, from + tie)) padded(j) = TimePoint(padded(from).t, padded(j).v)
      }
      id.toLong -> padded
    }
    val longestTie = series.map { case (_, pts) =>
      pts.indices.map(i => pts.indices.drop(i).takeWhile(j => pts(j).t == pts(i).t).length).max
    }.max
    assert(longestTie == tie || n == 1)
    val ds = SparkCleaner.toDS(spark, series)
    val placed = ds.rdd.mapPartitionsWithIndex((p, rows) => rows.map(r => (p, r.seriesId, r.t))).collect()
    val perPartition = placed.groupBy(_._1).map { case (p, rows) => p -> rows.length }
    assert(perPartition.values.forall(_ <= size + longestTie), s"slice $size: $perPartition")
    val split = placed.groupBy(r => (r._2, r._3)).filter(_._2.map(_._1).distinct.length > 1)
    assert(split.isEmpty, s"tie runs split across partitions: ${split.keys.take(3)}")
    assertSameMaps(SparkCleaner.collectSeries(ds), series.toMap)
    val sc = SpeedConstraint(1.5, 5.0)
    for (cleaner <- Seq(MtcscL(sc), MtcscC(sc)))
      assertSameMaps(SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner)),
        series.map { case (id, pts) => id -> cleaner.clean(pts) }.toMap)
  }

  /** `series` as rows that `toDS` never produces: a second-half-first
    * `union`, and a cached scatter over five partitions by `t`.
    */
  private def reordered(series: Seq[(Long, Array[TimePoint])]): Seq[Dataset[SeriesRow]] = {
    val secondFirst = SparkCleaner.toDS(spark, series.map { case (id, pts) => id -> pts.drop(150) })
      .union(SparkCleaner.toDS(spark, series.map { case (id, pts) => id -> pts.take(150) }))
    val scattered = SparkCleaner.toDS(spark, series).repartition(5, col("t")).cache()
    assert(scattered.rdd.getNumPartitions == 5)
    Seq(secondFirst, scattered)
  }

  /** Rows from outside toDS may disagree on D within a key (key 9). */
  private def mixedD: Dataset[SeriesRow] =
    spark.createDataset(Seq(SeriesRow(9L, 2.0, Seq(1.0)), SeriesRow(9L, 1.0, Seq(1.0, 2.0)),
      SeriesRow(9L, 1.0, Seq(3.0)), SeriesRow(8L, 0.0, Seq(4.0))))(Encoders.product[SeriesRow]).coalesce(1)

  /** The message of the first IllegalArgumentException in `run`'s failure. */
  private def contractError(run: => Any): String = {
    val e = intercept[Exception](run)
    Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case c: IllegalArgumentException => c.getMessage }
      .getOrElse(fail(s"no IllegalArgumentException in $e"))
  }

  test("collectSeries equals the row-wise collect when rows are scattered and out of order") {
    // Duplicate timestamps with distinct values, so the order of equal
    // timestamps in the output shows too.
    val series = (0L until 6L).map(id => id -> walk(300, 1 + (id % 3).toInt, seed = id))
    val inputs = SparkCleaner.toDS(spark, series) +: reordered(series) :+ mixedD
    for (rows <- inputs)
      assertSameMaps(SparkCleaner.collectSeries(rows), Reference.collectSeries(rows))
    inputs.foreach(_.unpersist())
  }

  test("clean's rows reach the next operator as views of one block per series, and collect as the row-wise collect does") {
    val sc = SpeedConstraint(1.5, 5.0)
    val series = (0L until 6L).map(id => id -> walk(300, 1 + (id % 3).toInt, seed = id))
    val ds = SparkCleaner.toDS(spark, series)
    for (cleaner <- Seq(MtcscL(sc), MtcscC(sc))) {
      val cleaned = SparkCleaner.clean(ds, cleaner)
      // Spark hands clean's row objects on as they are, so `pack` gets
      // each series' rows as `rows` yielded them and re-packs its block.
      val views = cleaned.mapPartitions(rows => Iterator(rows.count(_.dims.isInstanceOf[SparkCleaner.Block.Dims])))(
        Encoders.scalaInt).collect().sum
      assert(views == series.map(_._2.length).sum, cleaner.name)
      assertSameMaps(SparkCleaner.collectSeries(cleaned), Reference.collectSeries(cleaned))
      assertSameMaps(SparkCleaner.collectSeries(cleaned), series.map { case (id, pts) => id -> cleaner.clean(pts) }.toMap)
    }
  }

  test("Spark clean equals the row-wise clean when rows are scattered and out of order") {
    val sc = SpeedConstraint(1.5, 5.0)
    val series = (0L until 6L).map(id => id -> walk(300, 2, seed = id))
    val cleaners = Seq(MtcscG(sc), MtcscL(sc), MtcscC(sc), MtcscA(sc, m = 20), MtcscUni(Array.fill(2)(sc)))
    val inputs = reordered(series)
    for (rows <- inputs; cleaner <- cleaners)
      assertSameMaps(SparkCleaner.collectSeries(SparkCleaner.clean(rows, cleaner)),
        Reference.collectSeries(Reference.cleanRows(rows, cleaner)))
    inputs.foreach(_.unpersist())
    // A key that mixes D fails both with the kernel's input-contract error;
    // Spark's names the series.
    val mixed = MtcscL(sc)
    val got = contractError(SparkCleaner.collectSeries(SparkCleaner.clean(mixedD, mixed)))
    val want = contractError(Reference.collectSeries(Reference.cleanRows(mixedD, mixed)))
    assert(got == s"series 9, $want")
    assert(got.startsWith("series 9, point 1 (t = 1.0): has 1 dimensions, point 0 has 2"), got)
  }

  /** Keys 4-6 of 40-point walks; key 5's point 17 has a NaN in dimension 1. */
  private def nanInKey5: Seq[(Long, Array[TimePoint])] =
    (4L to 6L).map { id =>
      val pts = walk(40, 2, seed = id).distinctBy(_.t)
      if (id == 5L) pts(17).v(1) = Double.NaN
      id -> pts
    }

  test("Spark clean names the series of a contract error, for MTCSC and baseline cleaners") {
    val series = nanInKey5
    val t17 = series(1)._2(17).t
    val ds = SparkCleaner.toDS(spark, series)
    for (cleaner <- Seq(MtcscC(sc2), repro.baselines.Ewma())) {
      val got = contractError(SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner)))
      assert(got == s"series 5, point 17 (t = $t17): value NaN in dimension 1 is not finite", s"${cleaner.name}: $got")
    }
  }

  test("violations rejects a non-finite value or timestamp and names the series") {
    val series = nanInKey5
    val t17 = series(1)._2(17).t
    val nanValue = SparkCleaner.toFlatDF(SparkCleaner.toDS(spark, series), dims = 2)
    assert(contractError(SparkCleaner.violations(nanValue, 2, 2.5).collect()) ==
      s"series 5, point 17 (t = $t17): value NaN in dimension 1 is not finite")
    // A NaN timestamp sorts last, so the error names the series' last index.
    val nanT = series.map { case (id, pts) =>
      id -> pts.map(p => if (id == 5L && p.t == t17) TimePoint(Double.NaN, Array(0.0, 0.0)) else p)
    }
    val flat = SparkCleaner.toFlatDF(SparkCleaner.toDS(spark, nanT), dims = 2)
    assert(contractError(SparkCleaner.violations(flat, 2, 2.5).collect()) ==
      s"series 5, point ${nanT(1)._2.length - 1} (t = NaN): timestamp is not finite")
  }

  test("clean shuffles one record per series and input partition, not one per point") {
    val series = (0 until 4).map(i => i.toLong -> walk(1000, 2, seed = i))
    val ds = SparkCleaner.toDS(spark, series)
    val sc = spark.sparkContext
    val group = "shuffle-shape"
    val stages = ConcurrentHashMap.newKeySet[Int]()
    val records = new LongAdder
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      private def groupOf(e: SparkListenerJobStart) = Option(e.properties).map(_.getProperty("spark.jobGroup.id"))
      override def onJobStart(e: SparkListenerJobStart): Unit = groupOf(e) match {
        case Some(`group`) => e.stageIds.foreach(stages.add)
        case Some("shuffle-shape-barrier") => drained.countDown()
        case _ =>
      }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId) && e.taskMetrics != null)
          records.add(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "clean")
      SparkCleaner.collectSeries(SparkCleaner.clean(ds, MtcscL(sc2)))
      // The bus delivers events in order, so once a later job's start
      // arrives, every task end of clean's jobs has too.
      sc.setJobGroup("shuffle-shape-barrier", "barrier")
      sc.parallelize(Seq(1), 1).count()
      assert(drained.await(30, TimeUnit.SECONDS))
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
    val partitions = ds.rdd.getNumPartitions
    assert(records.sum > 0 && records.sum <= 4 * partitions, s"${records.sum} records from $partitions partitions")
  }

  test("many series are cleaned independently and all keys survive") {
    val series = (0 until 20).map(i => i.toLong -> TimeSeriesGen.stock(50, seed = i))
    val ds = SparkCleaner.toDS(spark, series)
    val out = SparkCleaner.collectSeries(SparkCleaner.clean(ds, MtcscL(SpeedConstraint(2.0, 5.0))))
    assert(out.keySet == series.map(_._1).toSet)
    assert(out.values.forall(_.length == 50))
  }

  test("toFlatDF produces one column per dimension") {
    val ds = SparkCleaner.toDS(spark, Seq(0L -> gps.dirty))
    val flat = SparkCleaner.toFlatDF(ds, dims = 2)
    assert(flat.columns.toSeq == Seq("series_id", "t", "v0", "v1"))
    assert(flat.count() == gps.dirty.length)
  }

  test("violation detection SQL agrees with DuckDB (oracle)") {
    val ds = SparkCleaner.toDS(spark, Seq(0L -> gps.dirty.take(200)))
    val flat = SparkCleaner.toFlatDF(ds, dims = 2).cache()
    val sparkDf = SparkCleaner.violations(flat, dims = 2, s = 2.5)
    Oracle.assertEquivalent(sparkDf, violationSql("ts", 2, 2.5), "ts" -> flat)
  }

  test("violations leaves no temporary view behind") {
    val flat = SparkCleaner.toFlatDF(SparkCleaner.toDS(spark, Seq(0L -> gps.dirty.take(50))), dims = 2)
    val counts = (1 to 3).map(_ => SparkCleaner.violations(flat, 2, 2.5).count())
    assert(counts.forall(_ == 49))
    assert(!spark.catalog.listTables().collect().exists(_.name.startsWith("ts_viol_")))
  }

  test("violation flags match the in-memory speed test") {
    val pts = gps.dirty.take(200)
    val ds = SparkCleaner.toDS(spark, Seq(0L -> pts))
    val flat = SparkCleaner.toFlatDF(ds, dims = 2)
    val viol = SparkCleaner.violations(flat, 2, 2.5)
      .collect().map(r => r.getDouble(1) -> r.getInt(3)).toMap
    val scTest = SpeedConstraint(2.5, 1.0)
    for (i <- 1 until pts.length) {
      val expected = if (scTest.speedOk(pts(i - 1), pts(i))) 0 else 1
      assert(viol(pts(i).t) == expected, s"t=${pts(i).t}")
    }
  }

  test("violations skips pairs with equal timestamps and agrees with DuckDB (oracle)") {
    // Every sixth point is repeated with its timestamp and values: the
    // order of tied rows is undefined, so only equal values give the row
    // after a tie a defined speed in both engines.
    val base = gps.dirty.take(60)
    val pts = base.indices.flatMap { i =>
      if (i % 6 == 3) Seq(base(i), TimePoint(base(i).t, base(i).v.clone())) else Seq(base(i))
    }.toArray
    val ties = (1 until pts.length).count(i => pts(i).t == pts(i - 1).t)
    assert(ties == 10)
    val flat = SparkCleaner.toFlatDF(SparkCleaner.toDS(spark, Seq(4L -> pts)), dims = 2).cache()
    val sparkDf = SparkCleaner.violations(flat, dims = 2, s = 2.5)
    assert(sparkDf.count() == pts.length - 1 - ties)
    assert(sparkDf.filter(col("violation") === 1).count() ==
      SpeedConstraint.consecutiveSpeeds(pts).count(_ > 2.5))
    Oracle.assertEquivalent(sparkDf, violationSql("ts", 2, 2.5), "ts" -> flat)
    flat.unpersist()
  }

  /** The DuckDB oracle's SQL for [[SparkCleaner.violations]]: consecutive
    * speeds by lag window functions, written to run identically on Spark
    * and DuckDB (all columns explicitly cast, since the oracle stages
    * tables as VARCHAR). A pair with equal timestamps yields no row.
    */
  private def violationSql(table: String, dims: Int, s: Double): String = {
    val vcols = (0 until dims).map(l => s"CAST(v$l AS DOUBLE)")
    val lagDiffs = vcols.map(v => s"($v - LAG($v) OVER w)")
    val distExpr = "SQRT(" + lagDiffs.map(d => s"$d * $d").mkString(" + ") + ")"
    s"""SELECT series_id, t, speed,
       |       CASE WHEN speed > $s THEN 1 ELSE 0 END AS violation
       |FROM (
       |  SELECT CAST(series_id AS BIGINT) AS series_id,
       |         CAST(t AS DOUBLE) AS t,
       |         $distExpr / NULLIF(CAST(t AS DOUBLE) - LAG(CAST(t AS DOUBLE)) OVER w, 0) AS speed
       |  FROM $table
       |  WINDOW w AS (PARTITION BY series_id ORDER BY CAST(t AS DOUBLE))
       |) sub
       |WHERE speed IS NOT NULL""".stripMargin
  }

  test("block violations equal consecutiveSpeeds per key on toDS and reordered rows, and agree with DuckDB (oracle)") {
    // Strictly increasing timestamps where one point in ten is repeated
    // with its timestamp and values, so a tie's order cannot change a
    // speed; plus a zero-length and a one-point key.
    def dupWalk(n: Int, seed: Long): Array[TimePoint] = {
      val r = new scala.util.Random(seed)
      walk(n, 2, seed).distinctBy(_.t).flatMap(p => if (r.nextDouble() < 0.1) Seq(p, TimePoint(p.t, p.v.clone())) else Seq(p))
    }
    val series = (0L -> Array.empty[TimePoint]) +: (1L -> walk(1, 2, seed = 1)) +:
      (2L until 6L).map(id => id -> dupWalk(400, seed = id))
    val s = 2.5
    val inputs = SparkCleaner.toDS(spark, series) +: reordered(series)
    for (rows <- inputs) {
      val flat = SparkCleaner.toFlatDF(rows, dims = 2).cache()
      val viol = SparkCleaner.violations(flat, dims = 2, s)
      assert(viol.schema.map(f => f.name -> f.dataType.sql) ==
        Seq("series_id" -> "BIGINT", "t" -> "DOUBLE", "speed" -> "DOUBLE", "violation" -> "INT"))
      val got = viol.collect().groupBy(_.getLong(0)).map { case (id, rs) =>
        id -> rs.map(r => (r.getDouble(1), r.getDouble(2), r.getInt(3))).sortBy(_._1)
      }
      for ((id, pts) <- series) {
        val speeds = SpeedConstraint.consecutiveSpeeds(pts)
        val ts = (1 until pts.length).filter(i => pts(i).t - pts(i - 1).t > 0).map(pts(_).t)
        val rs = got.getOrElse(id, Array.empty[(Double, Double, Int)])
        def bits(xs: Seq[Double]) = xs.map(java.lang.Double.doubleToLongBits)
        assert(bits(rs.map(_._1).toSeq) == bits(ts), s"series $id t")
        assert(bits(rs.map(_._2).toSeq) == bits(speeds.toSeq), s"series $id speed")
        assert(rs.count(_._3 == 1) == speeds.count(_ > s), s"series $id flags")
      }
      assert(got.keySet.subsetOf(series.map(_._1).toSet))
      Oracle.assertEquivalent(viol, violationSql("ts", 2, s), "ts" -> flat)
      flat.unpersist()
    }
    inputs.foreach(_.unpersist())
  }

  /** SQL computing RMSE between a repaired and a truth table (joined on
    * series_id + t), written to run on Spark and DuckDB alike.
    */
  private def rmseSql(repairedTable: String, truthTable: String, dims: Int): String = {
    val sq = (0 until dims)
      .map(l => s"(CAST(r.v$l AS DOUBLE) - CAST(g.v$l AS DOUBLE))")
      .map(d => s"$d * $d")
      .mkString(" + ")
    s"""SELECT SQRT(AVG($sq)) AS rmse
       |FROM $repairedTable r
       |JOIN $truthTable g
       |  ON CAST(r.series_id AS BIGINT) = CAST(g.series_id AS BIGINT)
       | AND CAST(r.t AS DOUBLE) = CAST(g.t AS DOUBLE)""".stripMargin
  }

  test("RMSE SQL agrees with DuckDB (oracle) and the in-memory metric") {
    val repaired = MtcscC(sc2).clean(gps.dirty)
    val repairedFlat = SparkCleaner.toFlatDF(SparkCleaner.toDS(spark, Seq(0L -> repaired)), 2).cache()
    val truthFlat = SparkCleaner.toFlatDF(SparkCleaner.toDS(spark, Seq(0L -> gps.truth)), 2).cache()
    val view1 = "repaired_tbl"; val view2 = "truth_tbl"
    repairedFlat.createOrReplaceTempView(view1)
    truthFlat.createOrReplaceTempView(view2)
    val sql = rmseSql(view1, view2, 2)
    val sparkDf = spark.sql(sql)
    Oracle.assertEquivalent(sparkDf, rmseSql("repaired_tbl", "truth_tbl", 2),
      "repaired_tbl" -> repairedFlat, "truth_tbl" -> truthFlat)
    val sqlRmse = sparkDf.collect()(0).getDouble(0)
    assert(math.abs(sqlRmse - Metrics.rmse(repaired, gps.truth)) < 1e-6)
  }

  test("cleaning improves RMSE end-to-end through the Spark path") {
    val ds = SparkCleaner.toDS(spark, Seq(0L -> gps.dirty))
    val out = SparkCleaner.collectSeries(SparkCleaner.clean(ds, MtcscC(sc2)))(0L)
    assert(Metrics.rmse(out, gps.truth) < Metrics.rmse(gps.dirty, gps.truth))
  }
}
