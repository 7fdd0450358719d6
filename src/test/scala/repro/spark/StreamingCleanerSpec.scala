package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core._
import repro.data.TimeSeriesGen

class StreamingCleanerSpec extends SparkSpec {

  private val sc2 = SpeedConstraint(1.0, 2.0)

  private def example24: Array[TimePoint] = Array(
    TimePoint(1, Array(1.0, 1.0)), TimePoint(2, Array(1.8, 1.8)),
    TimePoint(3, Array(2.6, 1.0)), TimePoint(4, Array(3.4, 1.0)),
    TimePoint(5, Array(4.5, 1.0)), TimePoint(6, Array(5.5, 1.0)),
    TimePoint(7, Array(6.4, 1.0)))

  /** Bitwise equality of timestamps and values. */
  private def sameBits(a: TimePoint, b: TimePoint): Boolean =
    (a.t +: a.v.toSeq).map(java.lang.Double.doubleToLongBits) ==
      (b.t +: b.v.toSeq).map(java.lang.Double.doubleToLongBits)

  /** The first IllegalArgumentException in a cause chain, if any. */
  private def illegalArgument(e: Throwable): Option[Throwable] =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).find(_.isInstanceOf[IllegalArgumentException])

  // ----------------------------------------------- pure advance() logic

  test("advance replays batch MTCSC-L exactly at end of stream") {
    val (emitted, _, pending) =
      StreamingCleaner.advance(sc2, None, example24.toVector, endOfStream = true)
    assert(pending.isEmpty)
    val batch = MtcscL(sc2).clean(example24)
    assert(emitted.length == batch.length)
    emitted.indices.foreach(i => assert(sameBits(emitted(i), batch(i)), s"point $i"))
  }

  test("advance incremental = advance whole, for any chunking") {
    val series = TimeSeriesGen.gpsWalk(200, seed = 9).dirty
    val sc = SpeedConstraint(2.5, 8.0)
    val whole = StreamingCleaner.advance(sc, None, series.toVector, endOfStream = true)._1
    for (chunk <- Seq(1, 3, 7, 50)) {
      var prev: Option[TimePoint] = None
      var pending = Vector.empty[TimePoint]
      val emitted = Vector.newBuilder[TimePoint]
      series.grouped(chunk).foreach { batch =>
        val (e, p, rest) = StreamingCleaner.advance(sc, prev, pending ++ batch, endOfStream = false)
        emitted ++= e; prev = p; pending = rest
      }
      val (e, _, rest) = StreamingCleaner.advance(sc, prev, pending, endOfStream = true)
      emitted ++= e
      assert(rest.isEmpty, s"chunk=$chunk")
      val all = emitted.result()
      assert(all.length == whole.length, s"chunk=$chunk")
      all.indices.foreach(i => assert(sameBits(all(i), whole(i)), s"chunk=$chunk point $i"))
    }
  }

  test("advance waits when the window has not closed") {
    // Violating point with no successor yet: nothing can be decided.
    val pts = Vector(TimePoint.uni(0, 0.0), TimePoint.uni(1, 50.0))
    val (emitted, prev, pending) = StreamingCleaner.advance(sc2, None, pts, endOfStream = false)
    assert(emitted.length == 1) // only the anchor point
    assert(prev.get.v(0) == 0.0)
    assert(pending.length == 1)
  }

  test("advance emits once a beyond-window successor arrives") {
    val pts = Vector(
      TimePoint.uni(0, 0.0), TimePoint.uni(1, 50.0),
      TimePoint.uni(2, 50.0), TimePoint.uni(3, 50.0),
      TimePoint.uni(4, 50.0)) // t=4 > t=1 + w=2 -> head decidable
    val (emitted, _, _) = StreamingCleaner.advance(sc2, None, pts, endOfStream = false)
    assert(emitted.length >= 2)
    assert(emitted(1).v(0) == 0.0) // fallback to previous repair
  }

  test("advance rejects a point earlier than the last held point") {
    val prev = Some(TimePoint.uni(5, 0.0))
    val e = intercept[IllegalArgumentException](
      StreamingCleaner.advance(sc2, prev, Vector(TimePoint.uni(6, 0.5), TimePoint.uni(4, 0.5)), endOfStream = false))
    assert(e.getMessage == "point 2 (t = 4.0): timestamp decreases from 6.0", e.getMessage)
    intercept[IllegalArgumentException](
      StreamingCleaner.advance(sc2, prev, Vector(TimePoint.uni(4.5, 0.0)), endOfStream = false))
  }

  test("advance rejects a non-finite value") {
    val e = intercept[IllegalArgumentException](StreamingCleaner.advance(sc2, Some(TimePoint.uni(0, 0.0)),
      Vector(TimePoint.uni(1, 0.5), TimePoint.uni(2, Double.NaN)), endOfStream = false))
    assert(e.getMessage == "point 2 (t = 2.0): value NaN in dimension 0 is not finite", e.getMessage)
  }

  test("advance gives a contract error's index in the series when told where its points start") {
    val sc = SpeedConstraint(2.5, 8.0)
    val series = TimeSeriesGen.gpsWalk(40, seed = 4).dirty
    var prev: Option[TimePoint] = None
    var pending = Vector.empty[TimePoint]
    var decided = 0L
    for (chunk <- series.take(30).grouped(7)) {
      val (e, p, rest) = StreamingCleaner.advance(sc, prev, pending ++ chunk, endOfStream = false, first = math.max(0L, decided - 1))
      decided += e.length; prev = p; pending = rest
    }
    assert(prev.isDefined && decided > 1)
    val bad = TimePoint(series(30).t, Array(series(30).v(0), Double.NaN))
    val e = intercept[InputContractException](
      StreamingCleaner.advance(sc, prev, pending ++ Vector(bad), endOfStream = false, first = decided - 1))
    assert(e.index == 30 && e.series.isEmpty)
    assert(e.getMessage == s"point 30 (t = ${bad.t}): value NaN in dimension 1 is not finite", e.getMessage)
    // Without the count, the index is the point's place in the held state.
    val held = intercept[InputContractException](
      StreamingCleaner.advance(sc, prev, pending ++ Vector(bad), endOfStream = false))
    assert(held.index == pending.length + 1)
  }

  test("advance rejects a change of D") {
    val e = intercept[IllegalArgumentException](StreamingCleaner.advance(sc2, Some(TimePoint(0, Array(0.0, 0.0))),
      Vector(TimePoint.uni(1, 0.5)), endOfStream = false))
    assert(e.getMessage == "point 1 (t = 1.0): has 1 dimensions, point 0 has 2", e.getMessage)
  }

  // ------------------------------------------- full Structured Streaming

  test("Structured Streaming micro-batches reproduce batch MTCSC-L") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val series = TimeSeriesGen.gpsWalk(300, seed = 11).dirty
    val sc = SpeedConstraint(2.5, 8.0)
    val input = MemoryStream[SeriesRow]
    val query = StreamingCleaner.clean(input.toDS(), sc)
      .writeStream.format("memory").queryName("mtcsc_stream").outputMode("append").start()
    try {
      val rows = Reference.rows(0L, series)
      rows.grouped(37).foreach { batch => input.addData(batch); query.processAllAvailable() }
      // close the stream with a far-future sentinel so every point is decided
      val sentinel = SeriesRow(0L, series.last.t + 1000, series.last.v.toSeq)
      input.addData(Seq(sentinel)); query.processAllAvailable()
      val got = spark.table("mtcsc_stream").as[SeriesRow].collect()
        .filter(_.t <= series.last.t).sortBy(_.t)
      val batchOut = MtcscL(sc).clean(series)
      assert(got.length == batchOut.length)
      got.indices.foreach { i =>
        assert(sameBits(TimePoint(got(i).t, got(i).dims.toArray), batchOut(i)), s"point $i")
      }
    } finally query.stop()
  }

  test("streaming state keeps separate series independent") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val a = TimeSeriesGen.stock(80, seed = 1)
    val b = TimeSeriesGen.stock(80, seed = 2)
    val sc = SpeedConstraint(2.0, 5.0)
    val input = MemoryStream[SeriesRow]
    val query = StreamingCleaner.clean(input.toDS(), sc)
      .writeStream.format("memory").queryName("mtcsc_multi").outputMode("append").start()
    try {
      val rows = Reference.rows(0L, a) ++ Reference.rows(1L, b)
      input.addData(rows)
      input.addData(Seq(SeriesRow(0L, 1e9, a.last.v.toSeq), SeriesRow(1L, 1e9, b.last.v.toSeq)))
      query.processAllAvailable()
      val got = spark.table("mtcsc_multi").as[SeriesRow].collect().filter(_.t < 1e9)
      assert(got.count(_.seriesId == 0L) == 80)
      assert(got.count(_.seriesId == 1L) == 80)
    } finally query.stop()
  }

  test("a late point fails the streaming query with the input-contract error") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val input = MemoryStream[SeriesRow]
    val query = StreamingCleaner.clean(input.toDS(), sc2)
      .writeStream.format("memory").queryName("mtcsc_late").outputMode("append").start()
    try {
      input.addData(Seq(SeriesRow(0L, 1, Seq(0.0)), SeriesRow(0L, 2, Seq(0.5))))
      query.processAllAvailable()
      input.addData(Seq(SeriesRow(0L, 1.5, Seq(0.2))))
      val e = intercept[org.apache.spark.sql.streaming.StreamingQueryException](query.processAllAvailable())
      val cause = illegalArgument(e)
      assert(cause.exists(_.getMessage.contains("timestamp decreases from 2.0")), e)
    } finally query.stop()
  }

  test("a NaN value fails the streaming query with an error that names its series") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val input = MemoryStream[SeriesRow]
    val query = StreamingCleaner.clean(input.toDS(), sc2)
      .writeStream.format("memory").queryName("mtcsc_nan").outputMode("append").start()
    try {
      input.addData((0 until 4).flatMap(i => Seq(SeriesRow(4L, i, Seq(0.1 * i)), SeriesRow(5L, i, Seq(0.2 * i)))))
      query.processAllAvailable()
      input.addData(Seq(SeriesRow(4L, 4, Seq(0.4)), SeriesRow(5L, 4, Seq(Double.NaN))))
      val e = intercept[org.apache.spark.sql.streaming.StreamingQueryException](query.processAllAvailable())
      assert(illegalArgument(e).map(_.getMessage).contains(
        "series 5, point 4 (t = 4.0): value NaN in dimension 0 is not finite"), e)
    } finally query.stop()
  }
}
