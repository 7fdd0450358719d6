package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuilder
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Reference, SeriesRow, TimePoint}
import repro.spark.SparkCleaner.Block

/** [[SparkCleaner.Block]] on its own: its Java form, its row views and
  * `pack`'s re-pack by reference.
  */
class BlockSpec extends AnyFunSuite {

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def assertSame(got: Block, want: Block): Unit = {
    assert(got.seriesId == want.seriesId)
    assert(bits(got.t) == bits(want.t))
    assert(bits(got.v) == bits(want.v))
  }

  private def javaRoundTrip[A](x: A): A = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(x)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[A]
  }

  /** n points of D values drawn from `special` and random doubles. */
  private def block(id: Long, n: Int, d: Int, seed: Long): Block = {
    val r = new java.util.Random(seed)
    val special = Array(-0.0, 0.0, Double.MinPositiveValue, -Double.MinPositiveValue, java.lang.Double.MIN_NORMAL / 3,
      java.lang.Double.longBitsToDouble(0x7ff8000000000123L), java.lang.Double.longBitsToDouble(0xfff4000000000abcL),
      Double.PositiveInfinity, Double.MaxValue, 1.0)
    def draw() = if (r.nextInt(3) == 0) special(r.nextInt(special.length)) else r.nextGaussian() * 1e3
    Block(id, Array.tabulate(n)(i => i + draw()), Array.fill(n * d)(draw()))
  }

  /** `pack` as it was before it re-packed blocks by reference: every run
    * of contiguous rows with one key and one D copied through `ArrayBuilder.ofDouble`.
    */
  private def copyPack(rows: Iterator[SeriesRow]): Iterator[Block] = {
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

  test("a block survives a Java round trip bit for bit") {
    val blocks = Seq(Block(3L, Array.empty, Array.empty), block(-1L, 1, 1, seed = 1), block(7L, 50, 1, seed = 2),
      block(Long.MaxValue, 40, 32, seed = 3), block(0L, 5, 0, seed = 4))
    for (b <- blocks) assertSame(javaRoundTrip(b), b)
    // As the slices of `toDS` ship: a sequence of blocks in one stream.
    val shipped = javaRoundTrip(blocks.toVector)
    assert(shipped.length == blocks.length)
    shipped.zip(blocks).foreach { case (got, want) => assertSame(got, want) }
  }

  test("Java serialisation writes a block in its bulk form") {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(block(1L, 1000, 2, seed = 5))
    out.close()
    val stream = new String(bytes.toByteArray, java.nio.charset.StandardCharsets.ISO_8859_1)
    assert(stream.contains(classOf[Block.Wire].getName) && !stream.contains("[D"))
    // 24,000 bytes of doubles, the id and lengths, block headers and the class descriptor.
    assert(bytes.size < 24000 + 400, bytes.size)
  }

  test("pack returns the block itself for its whole rows in order") {
    val b = block(4L, 30, 3, seed = 6)
    val packed = Block.pack(b.rows).toList
    assert(packed.length == 1 && (packed.head eq b))
    // Several whole blocks in a row, of one key or many, each pack to themselves.
    val bs = Seq(block(1L, 10, 2, seed = 7), block(2L, 10, 3, seed = 8), block(2L, 12, 2, seed = 9), block(1L, 1, 2, seed = 10))
    val again = Block.pack(bs.iterator.flatMap(_.rows)).toList
    assert(again.length == bs.length && again.zip(bs).forall { case (a, b) => a eq b })
  }

  test("pack copies any other run, as the copying pack does") {
    val a = block(5L, 20, 2, seed = 11)
    val a2 = block(5L, 8, 2, seed = 12)
    val wide = block(5L, 6, 3, seed = 13)
    val other = block(6L, 4, 2, seed = 14)
    val cases = Seq(
      "a partial block" -> (() => a.rows.take(12)),
      "a block without its first row" -> (() => a.rows.drop(1)),
      "rows from two blocks of one key" -> (() => a.rows ++ a2.rows),
      "a block then rows of another" -> (() => a.rows ++ a2.rows.take(3) ++ other.rows.drop(1)),
      "reordered rows" -> (() => a.rows.toSeq.reverse.iterator),
      "mixed D" -> (() => a.rows.take(5) ++ wide.rows.take(4) ++ a.rows.drop(5)),
      "row-wise dims" -> (() => a.rows.map(r => SeriesRow(r.seriesId, r.t, ArraySeq.unsafeWrapArray(r.dims.toArray)))),
      "rows with a changed timestamp" -> (() => a.rows.zipWithIndex.map { case (r, i) =>
        if (i == 7) r.copy(t = Double.NegativeInfinity) else r
      }),
    )
    for ((name, rows) <- cases) {
      val got = Block.pack(rows()).toList
      val want = copyPack(rows()).toList
      assert(got.length == want.length, name)
      got.zip(want).foreach { case (g, w) => assertSame(g, w) }
      assert(!got.exists(g => (g eq a) || (g eq a2) || (g eq wide) || (g eq other)), name)
    }
  }

  test("a row's view of its block equals the row with copied dims, with the same hash") {
    // No NaN: a NaN makes a row unequal to itself, whatever holds its dims.
    val r = new java.util.Random(15)
    val gaussian = Block(9L, Array.tabulate(20)(_.toDouble), Array.fill(60)(r.nextGaussian()))
    val whole = Block(2L, Array(0.0, 1.0), Array(1.0, 2.0, 3.0, -0.0))
    for (b <- Seq(gaussian, whole, Block(1L, Array(0.0, 1.0, 2.0), Array.empty))) {
      for ((view, i) <- b.rows.zipWithIndex) {
        val d = b.dim
        val copied = SeriesRow(b.seriesId, b.t(i), ArraySeq.unsafeWrapArray(java.util.Arrays.copyOfRange(b.v, i * d, i * d + d)))
        assert(view.dims.isInstanceOf[Block.Dims])
        assert(view == copied && copied == view)
        assert(view.hashCode == copied.hashCode)
        assert(view.dims.toList == copied.dims.toList)
        assert(view.dims.iterator.toList == copied.dims.toList)
      }
    }
  }

  test("the rows of Block.of stamp the id and equal one row per point") {
    val pts = Array.tabulate(12)(i => TimePoint(i * 0.5, Array(i * 1.5, -i * 0.25, -0.0)))
    val rows = Block.of(7L, pts).rows.toList
    assert(rows.forall(_.seriesId == 7L))
    assert(rows == Reference.rows(7L, pts))
  }

  test("merge of pack reads rows as toPoints does, ties and mixed D included") {
    val r = new java.util.Random(16)
    for (_ <- 1 to 50) {
      val rows = Seq.fill(1 + r.nextInt(40))(SeriesRow(3L, r.nextInt(10).toDouble, Seq.fill(1 + r.nextInt(2))(r.nextGaussian())))
      val got = Block.merge(Block.pack(rows.iterator))
      val want = SeriesRow.toPoints(rows)
      assert(got.length == want.length)
      got.zip(want).foreach { case (g, w) => assert(bits(g.t +: g.v) == bits(w.t +: w.v)) }
    }
  }
}
