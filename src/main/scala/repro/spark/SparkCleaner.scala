package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Cleaner, SeriesRow, TimePoint}

/** Batch Spark execution of the cleaners. A series crosses the
  * driver/executor boundary as one columnar [[SparkCleaner.Block]], in
  * both directions: `toDS` ships one block per series and expands it to
  * [[SeriesRow]]s on the executors, and `collectSeries` packs each
  * partition's rows back into blocks before collecting. `clean` shuffles
  * blocks, not rows: each input partition's runs of same-key rows are
  * packed into blocks, the blocks are grouped by series, and a group's
  * blocks are merged back into one time-ordered series ([[Block.merge]])
  * and repaired with any registered [[Cleaner]]. Points with equal
  * timestamps that sit in different input partitions have no defined
  * order, as with a row-wise `groupByKey`. The sequential per-series
  * algorithms are the paper's — Spark contributes parallelism across
  * series and the SQL surface for violation detection and metrics.
  */
object SparkCleaner {

  /** One run of a series' points: timestamps `t` and the values as a flat
    * row-major n×D array `v`, so D = `v.length / t.length`.
    */
  private[spark] final case class Block(seriesId: Long, t: Array[Double], v: Array[Double]) {
    def points: Array[TimePoint] = {
      val d = if (t.isEmpty) 0 else v.length / t.length
      Array.tabulate(t.length)(i => TimePoint(t(i), v.slice(i * d, i * d + d)))
    }
  }

  private[spark] object Block {
    /** The block of a whole series. A flat `v` needs one D for every point,
      * so a series whose points disagree on D is rejected here.
      */
    def of(seriesId: Long, pts: Array[TimePoint]): Block = {
      val d = if (pts.isEmpty) 0 else pts(0).dim
      val i = pts.indexWhere(_.dim != d)
      if (i >= 0) throw new IllegalArgumentException(
        s"series $seriesId, point $i (t = ${pts(i).t}): has ${pts(i).dim} dimensions, point 0 has $d")
      Block(seriesId, pts.map(_.t), pts.flatMap(_.v))
    }

    /** Packs each run of contiguous rows with one key and one D into a block. */
    def pack(rows: Iterator[SeriesRow]): Iterator[Block] = {
      val in = rows.buffered
      Iterator.continually(in).takeWhile(_.hasNext).map { _ =>
        val first = in.head
        val t = Array.newBuilder[Double]
        val v = Array.newBuilder[Double]
        while (in.hasNext && in.head.seriesId == first.seriesId && in.head.dims.length == first.dims.length) {
          val r = in.next()
          t += r.t
          v ++= r.dims
        }
        Block(first.seriesId, t.result(), v.result())
      }
    }

    /** One key's points from its blocks: concatenated in arrival order and
      * stably sorted by `t`, so equal timestamps keep that order.
      */
    def merge(blocks: IterableOnce[Block]): Array[TimePoint] =
      blocks.iterator.flatMap(_.points).toArray.sortBy(_.t)
  }

  /** Lift in-memory series into a Dataset[SeriesRow]: one block per series
    * on the driver, expanded to rows on the executors. A zero-length series
    * yields no rows.
    */
  def toDS(spark: SparkSession, series: Seq[(Long, Array[TimePoint])]): Dataset[SeriesRow] = {
    import spark.implicits._
    series.map { case (id, pts) => Block.of(id, pts) }.toDS()
      .flatMap(b => SeriesRow.fromPoints(b.seriesId, b.points))
  }

  /** Clean every series with `cleaner`, one group per seriesId. The
    * shuffle moves one block per run of same-key rows in an input
    * partition, not one row per point.
    */
  def clean(ds: Dataset[SeriesRow], cleaner: Cleaner): Dataset[SeriesRow] = {
    import ds.sparkSession.implicits._
    ds.mapPartitions(Block.pack).groupByKey(_.seriesId).flatMapGroups { (id, blocks) =>
      SeriesRow.fromPoints(id, cleaner.clean(Block.merge(blocks))).iterator
    }
  }

  /** Collect a Dataset back to per-series point arrays: each key's points
    * in collect order, stably sorted by `t`.
    */
  def collectSeries(ds: Dataset[SeriesRow]): Map[Long, Array[TimePoint]] = {
    import ds.sparkSession.implicits._
    ds.mapPartitions(Block.pack).collect().groupBy(_.seriesId).map { case (id, blocks) =>
      id -> Block.merge(blocks)
    }
  }

  /** Flatten to one column per dimension (series_id, t, v0..v{D-1}) —
    * the SQL-facing shape shared with the DuckDB oracle.
    */
  def toFlatDF(ds: Dataset[SeriesRow], dims: Int): DataFrame = {
    val cols = col("seriesId").as("series_id") +: col("t") +:
      (0 until dims).map(l => element_at(col("dims"), l + 1).as(s"v$l"))
    ds.toDF().select(cols: _*)
  }

  /** SQL detecting consecutive-pair speed violations, written to run
    * identically on Spark and DuckDB (all columns explicitly cast, since
    * the oracle stages tables as VARCHAR). One row per point with its
    * consecutive Euclidean speed and a violation flag.
    */
  def violationSql(table: String, dims: Int, s: Double): String = {
    val vcols = (0 until dims).map(l => s"CAST(v$l AS DOUBLE)")
    val lagDiffs = vcols.map(v => s"($v - LAG($v) OVER w)")
    val distExpr = "SQRT(" + lagDiffs.map(d => s"$d * $d").mkString(" + ") + ")"
    s"""SELECT series_id, t, speed,
       |       CASE WHEN speed > $s THEN 1 ELSE 0 END AS violation
       |FROM (
       |  SELECT CAST(series_id AS BIGINT) AS series_id,
       |         CAST(t AS DOUBLE) AS t,
       |         $distExpr / (CAST(t AS DOUBLE) - LAG(CAST(t AS DOUBLE)) OVER w) AS speed
       |  FROM $table
       |  WINDOW w AS (PARTITION BY series_id ORDER BY CAST(t AS DOUBLE))
       |) sub
       |WHERE speed IS NOT NULL""".stripMargin
  }

  /** Run [[violationSql]] on Spark over a flat DataFrame. */
  def violations(flat: DataFrame, dims: Int, s: Double): DataFrame = {
    val view = s"ts_viol_${System.nanoTime()}"
    flat.createOrReplaceTempView(view)
    // `sql` analyses eagerly and inlines the view's plan, so the view is
    // not needed once it returns.
    try flat.sparkSession.sql(violationSql(view, dims, s))
    finally flat.sparkSession.catalog.dropTempView(view)
  }

  /** SQL computing RMSE between a repaired and a truth table (joined on
    * series_id + t) — also oracle-compatible.
    */
  def rmseSql(repairedTable: String, truthTable: String, dims: Int): String = {
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
}
