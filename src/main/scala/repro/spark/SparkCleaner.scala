package repro.spark

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
  *    blocks and expanded to [[SeriesRow]]s on the executors whose `dims`
  *    view the block's values instead of copying them.
  *  - `clean` packs each input partition's runs of same-key rows into
  *    blocks, groups the blocks by series, merges a group back into one
  *    time-ordered series ([[Block.merge]]), repairs it with any
  *    registered [[Cleaner]] and emits the repair as the rows of one
  *    block; `violations` does the same with the flat columns and
  *    computes consecutive speeds instead of a repair.
  *  - `collectSeries` packs each partition's rows into blocks (the rows
  *    of one whole block pack to that block, uncopied), collects the
  *    blocks as objects and merges them per key.
  *
  * Encoders hold blocks with Kryo, which reads and writes their arrays in
  * primitive loops; Java serialisation writes them in bulk
  * ([[Block.Wire]]). Points with equal timestamps that sit in different
  * input partitions have no defined order, as with a row-wise
  * `groupByKey`; `toDS` never puts equal timestamps of a series in
  * different partitions. The sequential per-series
  * algorithms are the paper's — Spark contributes parallelism across
  * series.
  */
object SparkCleaner {

  /** One run of a series' points: timestamps `t` and the values as a flat
    * row-major n×D array `v`, so D = `v.length / t.length`. Neither array
    * is written after construction: rows view them, [[Block.pack]] may
    * hand the block itself on, and Spark may share it between operators.
    */
  private[spark] final case class Block(seriesId: Long, t: Array[Double], v: Array[Double]) {
    def dim: Int = if (t.isEmpty) 0 else v.length / t.length

    /** One row per point, each `dims` a read-only view of `v` ([[Block.Dims]]). */
    def rows: Iterator[SeriesRow] = {
      val d = dim
      Iterator.tabulate(t.length)(i => SeriesRow(seriesId, t(i), new Block.Dims(this, i, d)))
    }

    /** Java serialisation writes [[Block.Wire]] in place of the block. */
    private def writeReplace(): AnyRef = new Block.Wire(this)
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

    /** Packs each run of contiguous rows with one key and one D into a
      * block. A run that is exactly the rows of one block, whole and in
      * order (as `rows` yields them), is that block; any other run is
      * copied once into a buffer that serves every run of the call.
      */
    def pack(rows: Iterator[SeriesRow]): Iterator[Block] = new Iterator[Block] {
      private val in = rows.buffered
      private val t = new DoubleBuffer
      private val v = new DoubleBuffer

      def hasNext: Boolean = in.hasNext

      def next(): Block = {
        val first = in.head
        val id = first.seriesId
        val d = first.dims.length
        def inRun(r: SeriesRow) = r.seriesId == id && r.dims.length == d
        first.dims match {
          case w: Dims =>
            val b = w.block
            var k = 0
            while (k < b.t.length && in.hasNext && isRow(in.head, b, k)) { in.next(); k += 1 }
            if (k == b.t.length && !(in.hasNext && inRun(in.head))) return b
            t.add(b.t, 0, k)
            v.add(b.v, 0, k * d)
          case _ =>
        }
        while (in.hasNext && inRun(in.head)) {
          val r = in.next()
          t += r.t
          v.add(r.dims)
        }
        Block(id, t.take(), v.take())
      }
    }

    /** Whether `r` is row `k` of `b` as `b.rows` yields it. */
    private def isRow(r: SeriesRow, b: Block, k: Int): Boolean = r.dims match {
      case w: Dims => (w.block eq b) && w.i == k && r.seriesId == b.seriesId &&
        java.lang.Double.doubleToRawLongBits(r.t) == java.lang.Double.doubleToRawLongBits(b.t(k))
      case _ => false
    }

    /** Packs each run of contiguous rows with one key into a block, from
      * rows of (series_id BIGINT, t DOUBLE, v0..v{dims-1} DOUBLE). Rows may
      * be reused by the iterator, so each is read before the next.
      */
    def packFlat(rows: Iterator[InternalRow], dims: Int): Iterator[Block] = {
      val in = rows.buffered
      val t = new DoubleBuffer
      val v = new DoubleBuffer
      Iterator.continually(in).takeWhile(_.hasNext).map { _ =>
        val id = in.head.getLong(0)
        while (in.hasNext && in.head.getLong(0) == id) {
          val r = in.next()
          if (r.anyNull) throw new IllegalArgumentException(s"series $id: a row has a null column")
          t += r.getDouble(1)
          var l = 0
          while (l < dims) { v += r.getDouble(2 + l); l += 1 }
        }
        Block(id, t.take(), v.take())
      }
    }

    /** Row `i`'s values in `block`, whose D is `length`: a read-only view
      * of its `v`, equal (with the same hash) to any `Seq` of those values.
      */
    final class Dims(val block: Block, val i: Int, override val length: Int) extends IndexedSeq[Double] {
      private val from = i * length

      def apply(l: Int): Double = {
        if (l < 0 || l >= length) throw new IndexOutOfBoundsException(s"$l is out of bounds (min 0, max ${length - 1})")
        block.v(from + l)
      }

      override def iterator: Iterator[Double] = new scala.collection.AbstractIterator[Double] {
        private val until = from + Dims.this.length
        private var l = from
        def hasNext: Boolean = l < until
        def next(): Double = {
          if (!hasNext) throw new NoSuchElementException("next on empty iterator")
          l += 1
          block.v(l - 1)
        }
      }
    }

    /** A growable primitive buffer that one packing call reuses for every
      * block it builds: `take` copies the contents out once and empties it.
      */
    private final class DoubleBuffer {
      private var a = new Array[Double](64)
      private var n = 0

      private def reserve(m: Int): Unit =
        if (n + m > a.length) a = java.util.Arrays.copyOf(a, math.max(2 * a.length, n + m))

      def +=(x: Double): Unit = { reserve(1); a(n) = x; n += 1 }

      def add(src: Array[Double], from: Int, len: Int): Unit = {
        reserve(len)
        System.arraycopy(src, from, a, n, len)
        n += len
      }

      def add(xs: Seq[Double]): Unit = xs match {
        case w: Dims => add(w.block.v, w.i * w.length, w.length)
        case _ => xs.foreach(this += _)
      }

      def take(): Array[Double] = { val out = java.util.Arrays.copyOf(a, n); n = 0; out }
    }

    /** The Java-serialised form of a block, which serves `toDS`'s task
      * shipping and `collectSeries`'s collect: the id and the two lengths,
      * then `t` and `v` as one little-endian byte run, written and read in
      * bulk rather than one double at a time.
      */
    final class Wire(private var b: Block) extends java.io.Externalizable {
      def this() = this(null)

      def writeExternal(out: java.io.ObjectOutput): Unit = {
        out.writeLong(b.seriesId)
        out.writeInt(b.t.length)
        out.writeInt(b.v.length)
        val bytes = java.nio.ByteBuffer.allocate(8 * (b.t.length + b.v.length)).order(java.nio.ByteOrder.LITTLE_ENDIAN)
        bytes.asDoubleBuffer().put(b.t).put(b.v)
        out.write(bytes.array())
      }

      def readExternal(in: java.io.ObjectInput): Unit = {
        val id = in.readLong()
        val t = new Array[Double](in.readInt())
        val v = new Array[Double](in.readInt())
        val bytes = new Array[Byte](8 * (t.length + v.length))
        in.readFully(bytes)
        java.nio.ByteBuffer.wrap(bytes).order(java.nio.ByteOrder.LITTLE_ENDIAN).asDoubleBuffer().get(t).get(v)
        b = Block(id, t, v)
      }

      private def readResolve(): AnyRef = b
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

  /** Every batch op encodes blocks with Kryo, as the streaming state
    * does: Spark's product encoder decodes an `Array[Double]` field one
    * boxed element at a time.
    */
  private val blockEncoder: Encoder[Block] = Encoders.kryo[Block]
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
    * partition, not one row per point, and each repaired series leaves as
    * the rows of one block, which `collectSeries` packs back to that
    * block. A series outside the input
    * contract fails the job with an [[InputContractException]] that
    * names it.
    */
  def clean(ds: Dataset[SeriesRow], cleaner: Cleaner): Dataset[SeriesRow] =
    ds.mapPartitions(Block.pack)(blockEncoder).groupByKey(_.seriesId)(Encoders.scalaLong)
      .flatMapGroups { (id, blocks) =>
        Block.of(id, InputContractException.inSeries(id)(cleaner.clean(Block.merge(blocks)))).rows
      }(rowEncoder)

  /** Collect a Dataset back to per-series point arrays: each key's points
    * in collect order, stably sorted by `t`.
    */
  def collectSeries(ds: Dataset[SeriesRow]): Map[Long, Array[TimePoint]] = mergeByKey(collectBlocks(ds))

  /** Each partition's rows packed into blocks and collected through the
    * RDD, which ships them in their Java form rather than as SQL rows
    * that are decompressed and then decoded with Kryo after the job.
    */
  private[spark] def collectBlocks(ds: Dataset[SeriesRow]): Array[Block] =
    ds.mapPartitions(Block.pack)(blockEncoder).rdd.collect()

  /** Every key's points from its collected blocks, by [[Block.merge]]. */
  private[spark] def mergeByKey(blocks: Array[Block]): Map[Long, Array[TimePoint]] =
    blocks.groupBy(_.seriesId).map { case (id, bs) => id -> Block.merge(bs) }

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
        val pts = Block.merge(group)
        InputContractException.inSeries(id)(TimePoint.check(pts))
        (1 until pts.length).iterator.collect { case i if pts(i).t - pts(i - 1).t > 0 =>
          val speed = pts(i).dist(pts(i - 1)) / (pts(i).t - pts(i - 1).t)
          Violation(id, pts(i).t, speed, if (speed > s) 1 else 0)
        }
      }(violationEncoder).toDF()
  }
}
