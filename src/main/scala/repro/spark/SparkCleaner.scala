package repro.spark

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuilder
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import repro.core.{Cleaner, InputContractException, SeriesRow, TimePoint}

/** Batch Spark execution of the cleaners. Every op moves series as
  * columnar [[SparkCleaner.Block]]s, never one record per point, wherever
  * they cross the driver/executor boundary or a shuffle:
  *
  *  - `toDS` lays the series end to end and cuts them into one run of
  *    about N/n points per task (n = the default parallelism), shipped as
  *    blocks and expanded to [[SeriesRow]]s on the executors.
  *  - `clean` packs each input partition's runs of same-key rows into
  *    blocks, groups the blocks by series, merges a group back into one
  *    time-ordered series ([[Block.merge]]) and repairs it with any
  *    registered [[Cleaner]]; `violations` does the same with the flat
  *    columns and computes consecutive speeds instead of a repair.
  *  - `collectSeries` packs each partition's rows into blocks before
  *    collecting and merges them per key on the driver.
  *
  * Blocks are encoded with Kryo, which reads and writes their arrays in
  * primitive loops. Points with equal timestamps that sit in different
  * input partitions have no defined order, as with a row-wise
  * `groupByKey`; `toDS` never puts equal timestamps of a series in
  * different partitions. The sequential per-series
  * algorithms are the paper's — Spark contributes parallelism across
  * series.
  */
object SparkCleaner {

  /** One run of a series' points: timestamps `t` and the values as a flat
    * row-major n×D array `v`, so D = `v.length / t.length`.
    */
  private[spark] final case class Block(seriesId: Long, t: Array[Double], v: Array[Double]) {
    def dim: Int = if (t.isEmpty) 0 else v.length / t.length

    def rows: Iterator[SeriesRow] = {
      val d = dim
      Iterator.tabulate(t.length)(i =>
        SeriesRow(seriesId, t(i), ArraySeq.unsafeWrapArray(java.util.Arrays.copyOfRange(v, i * d, i * d + d))))
    }
  }

  private[spark] object Block {
    /** The block of a whole series. */
    def of(seriesId: Long, pts: Array[TimePoint]): Block = of(seriesId, pts, 0, pts.length, dimOf(seriesId, pts))

    /** Points [from, until) of a series whose points all have `d` dimensions. */
    private def of(seriesId: Long, pts: Array[TimePoint], from: Int, until: Int, d: Int): Block = {
      val t = new Array[Double](until - from)
      val v = new Array[Double](t.length * d)
      var i = from
      while (i < until) {
        t(i - from) = pts(i).t
        System.arraycopy(pts(i).v, 0, v, (i - from) * d, d)
        i += 1
      }
      Block(seriesId, t, v)
    }

    /** The series' D. A flat `v` needs one D for every point, so a series
      * whose points disagree on D is rejected here.
      */
    private def dimOf(seriesId: Long, pts: Array[TimePoint]): Int = {
      val d = if (pts.isEmpty) 0 else pts(0).dim
      val i = pts.indexWhere(_.dim != d)
      if (i >= 0) throw new InputContractException(
        i, pts(i).t, s"has ${pts(i).dim} dimensions, point 0 has $d", Some(seriesId))
      d
    }

    /** The series laid end to end and cut into `n` runs of ⌈N/n⌉ points
      * for N points in all. A cut that would fall between equal timestamps
      * of a series moves forward past them, so a run may hold a tie run
      * more, and `merge` puts a series back in order whatever order its
      * blocks arrive in, as long as its timestamps are non-decreasing (the
      * kernels' input contract). Zero-length series yield no block; k
      * series yield at most k + n - 1 blocks.
      */
    def slices(series: Seq[(Long, Array[TimePoint])], n: Int): Seq[Seq[Block]] = {
      val size = math.max(1L, (series.map(_._2.length.toLong).sum + n - 1) / n)
      val out = Vector.fill(n)(Vector.newBuilder[Block])
      var start = 0L
      for ((id, pts) <- series) {
        val d = dimOf(id, pts)
        var i = 0
        while (i < pts.length) {
          val k = ((start + i) / size).toInt
          var j = math.min(pts.length.toLong, (k + 1) * size - start).toInt
          while (j < pts.length && pts(j).t == pts(j - 1).t) j += 1
          out(k) += of(id, pts, i, j, d)
          i = j
        }
        start += pts.length
      }
      out.map(_.result())
    }

    /** Packs each run of contiguous rows with one key and one D into a block. */
    def pack(rows: Iterator[SeriesRow]): Iterator[Block] = {
      val in = rows.buffered
      Iterator.continually(in).takeWhile(_.hasNext).map { _ =>
        val first = in.head
        val t = new ArrayBuilder.ofDouble
        val v = new ArrayBuilder.ofDouble
        while (in.hasNext && in.head.seriesId == first.seriesId && in.head.dims.length == first.dims.length) {
          val r = in.next()
          t += r.t
          v ++= r.dims
        }
        Block(first.seriesId, t.result(), v.result())
      }
    }

    /** Packs each run of contiguous rows with one key into a block, from
      * rows of (series_id BIGINT, t DOUBLE, v0..v{dims-1} DOUBLE). Rows may
      * be reused by the iterator, so each is read before the next.
      */
    def packFlat(rows: Iterator[InternalRow], dims: Int): Iterator[Block] = {
      val in = rows.buffered
      Iterator.continually(in).takeWhile(_.hasNext).map { _ =>
        val id = in.head.getLong(0)
        val t = new ArrayBuilder.ofDouble
        val v = new ArrayBuilder.ofDouble
        while (in.hasNext && in.head.getLong(0) == id) {
          val r = in.next()
          if (r.anyNull) throw new IllegalArgumentException(s"series $id: a row has a null column")
          t += r.getDouble(1)
          var l = 0
          while (l < dims) { v += r.getDouble(2 + l); l += 1 }
        }
        Block(id, t.result(), v.result())
      }
    }

    private val byT: java.util.Comparator[TimePoint] = (a, b) => java.lang.Double.compare(a.t, b.t)

    /** One key's points from its blocks: concatenated in arrival order and
      * stably sorted by `t`, so equal timestamps keep that order. The sort
      * is skipped when the concatenation is already in order.
      */
    def merge(blocks: IterableOnce[Block]): Array[TimePoint] = {
      val bs = blocks.iterator.toArray
      val pts = new Array[TimePoint](bs.foldLeft(0)(_ + _.t.length))
      var n = 0
      var sorted = true
      for (b <- bs) {
        val d = b.dim
        var i = 0
        while (i < b.t.length) {
          pts(n) = TimePoint(b.t(i), java.util.Arrays.copyOfRange(b.v, i * d, i * d + d))
          if (n > 0 && java.lang.Double.compare(pts(n - 1).t, pts(n).t) > 0) sorted = false
          n += 1
          i += 1
        }
      }
      if (!sorted) java.util.Arrays.sort(pts, byT)
      pts
    }
  }

  /** One row of [[violations]]. */
  private[spark] final case class Violation(series_id: Long, t: Double, speed: Double, violation: Int)

  /** Every op, batch and streaming, encodes blocks with Kryo: Spark's
    * product encoder decodes an `Array[Double]` field one boxed element
    * at a time.
    */
  private[spark] val blockEncoder: Encoder[Block] = Encoders.kryo[Block]
  private[spark] val rowEncoder: Encoder[SeriesRow] = Encoders.product[SeriesRow]
  private val violationEncoder: Encoder[Violation] = Encoders.product[Violation]

  /** Lift in-memory series into a Dataset[SeriesRow]: [[Block.slices]] as
    * one partition of blocks per slice, expanded to rows on the executors.
    * A zero-length series yields no rows.
    */
  def toDS(spark: SparkSession, series: Seq[(Long, Array[TimePoint])]): Dataset[SeriesRow] = {
    val n = spark.sparkContext.defaultParallelism
    val blocks = spark.sparkContext.parallelize(Block.slices(series, n), n).flatMap(_.iterator)
    spark.createDataset(blocks)(blockEncoder).flatMap(_.rows)(rowEncoder)
  }

  /** Clean every series with `cleaner`, one group per seriesId. The
    * shuffle moves one block per run of same-key rows in an input
    * partition, not one row per point. A series outside the input
    * contract fails the job with an [[InputContractException]] that
    * names it.
    */
  def clean(ds: Dataset[SeriesRow], cleaner: Cleaner): Dataset[SeriesRow] =
    ds.mapPartitions(Block.pack)(blockEncoder).groupByKey(_.seriesId)(Encoders.scalaLong)
      .flatMapGroups { (id, blocks) =>
        InputContractException.inSeries(id)(cleaner.clean(Block.merge(blocks)))
          .iterator.map(p => SeriesRow(id, p.t, ArraySeq.unsafeWrapArray(p.v)))
      }(rowEncoder)

  /** Collect a Dataset back to per-series point arrays: each key's points
    * in collect order, stably sorted by `t`.
    */
  def collectSeries(ds: Dataset[SeriesRow]): Map[Long, Array[TimePoint]] =
    ds.mapPartitions(Block.pack)(blockEncoder).collect().groupBy(_.seriesId).map { case (id, blocks) =>
      id -> Block.merge(blocks)
    }

  /** Flatten to one column per dimension (series_id, t, v0..v{D-1}) —
    * the SQL-facing shape.
    */
  def toFlatDF(ds: Dataset[SeriesRow], dims: Int): DataFrame = {
    val cols = col("seriesId").as("series_id") +: col("t") +:
      (0 until dims).map(l => element_at(col("dims"), l + 1).as(s"v$l"))
    ds.toDF().select(cols: _*)
  }

  /** Consecutive-pair speed violations over a flat DataFrame: one row
    * (series_id BIGINT, t DOUBLE, speed DOUBLE, violation INT) per point
    * after the first of its series, with the Euclidean speed from its
    * predecessor in `t` order and `violation` = 1 when that speed exceeds
    * `s`. A pair with equal timestamps has no speed and yields no row, as
    * in [[repro.core.SpeedConstraint.consecutiveSpeeds]]. Each partition's
    * rows are packed into blocks, the blocks are grouped by series and
    * merged, and the speeds come from one pass over the merged series. A
    * series outside the cleaners' input contract (a non-finite timestamp
    * or value) fails the job with an [[InputContractException]] that
    * names it, as in [[clean]].
    */
  def violations(flat: DataFrame, dims: Int, s: Double): DataFrame = {
    val cols = col("series_id").cast("bigint") +: col("t").cast("double") +:
      (0 until dims).map(l => col(s"v$l").cast("double"))
    val blocks = flat.select(cols: _*).queryExecution.toRdd.mapPartitions(Block.packFlat(_, dims))
    flat.sparkSession.createDataset(blocks)(blockEncoder).groupByKey(_.seriesId)(Encoders.scalaLong)
      .flatMapGroups { (id, group) =>
        val pts = InputContractException.inSeries(id)(TimePoint.checkedCopyOf(Block.merge(group)))
        (1 until pts.length).iterator.collect { case i if pts(i).t - pts(i - 1).t > 0 =>
          val speed = pts(i).dist(pts(i - 1)) / (pts(i).t - pts(i - 1).t)
          Violation(id, pts(i).t, speed, if (speed > s) 1 else 0)
        }
      }(violationEncoder).toDF()
  }
}
