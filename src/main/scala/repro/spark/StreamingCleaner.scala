package repro.spark

import org.apache.spark.sql.{Dataset, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{InputContractException, MtcscL, SeriesRow, SpeedConstraint, TimePoint}
import repro.spark.SparkCleaner.{Block, rowEncoder}

/** Structured Streaming execution of MTCSC-L (Algorithm 2): a stateful
  * per-series operator that emits each point's repair as soon as it is
  * decidable — when a compatible successor arrives, or a successor
  * falls beyond the window (then the previous repair is reused). Every
  * decision is a step of MTCSC-L's run, the batch kernel's, so the emitted
  * repairs are the batch MTCSC-L output bit for bit, under any chunking.
  *
  * State per series: the count of its decided points and one
  * [[SparkCleaner.Block]] whose row 0 is the last repaired point and
  * whose other rows are the arrived-but-undecided points (bounded by the
  * window size). Points must arrive in timestamp order (the paper's
  * assumption, Section 5.6 limitation 1): a point earlier than the last
  * held one, a non-finite value or a change of D fails the query with an
  * [[InputContractException]] naming the series and the point's index in
  * it.
  */
object StreamingCleaner {

  /** Decide as many pending points as possible; pure so the streaming
    * operator and tests share the exact semantics. `prev0 +: pending0`
    * must meet the kernels' input contract ([[TimePoint.checkedCopyOf]]);
    * its first point is point `first` of the series, so that a contract
    * error gives the bad point's index in the series.
    *
    * @return (emitted repairs, new prev, remaining pending)
    */
  def advance(
      sc: SpeedConstraint,
      prev0: Option[TimePoint],
      pending0: Vector[TimePoint],
      endOfStream: Boolean,
      first: Long = 0,
  ): (Vector[TimePoint], Option[TimePoint], Vector[TimePoint]) = {
    val xs = (prev0 ++: pending0).toArray
    val out = try TimePoint.checkedCopyOf(xs) catch {
      case e: InputContractException if first != 0 =>
        throw new InputContractException(first + e.index, e.t, e.reason, e.series)
    }
    val run = new MtcscL.Run(sc)
    var k = 1
    while (k < xs.length && run.step(out, xs, k, xs.length, closed = endOfStream)) k += 1
    val held = if (prev0.isDefined) 1 else 0
    (out.slice(held, k).toVector, out.lift(k - 1), pending0.drop(k - held))
  }

  /** One series' state: how many of its points were emitted, and a block
    * of the last of them followed by the pending points. Kryo has a
    * registered serializer for a tuple; a case class here would cost every
    * task's fresh serializer instance a reflective field serializer more.
    */
  private val stateEncoder = Encoders.kryo[(Long, Block)]

  /** Wire [[advance]] into flatMapGroupsWithState. */
  def clean(ds: Dataset[SeriesRow], sc: SpeedConstraint): Dataset[SeriesRow] =
    ds.groupByKey(_.seriesId)(Encoders.scalaLong)
      .flatMapGroupsWithState(OutputMode.Append(), GroupStateTimeout.NoTimeout)(
        (id: Long, rows: Iterator[SeriesRow], state: GroupState[(Long, Block)]) => {
          val decided = state.getOption.fold(0L)(_._1)
          val held = Block.merge(state.getOption.map(_._2))
          val arrived = Block.merge(Block.pack(rows))
          // The held block's row 0, when there is one, is the last decided point.
          val (emitted, prev, pending) = InputContractException.inSeries(id)(advance(
            sc, held.headOption, held.drop(1).toVector ++ arrived, endOfStream = false, first = math.max(0, decided - 1)))
          state.update((decided + emitted.length, Block.of(id, (prev ++: pending).toArray)))
          Block.of(id, emitted.toArray).rows
        }
      )(stateEncoder, rowEncoder)
}
