package repro.baselines

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{MtcscL, SpeedConstraint, TimePoint}
import repro.spark.StreamingCleaner

/** Property-style checks for the baselines and the streaming decision
  * logic over randomly generated series.
  */
class BaselinePropertiesSpec extends AnyFunSuite {

  private def forAllSampled[A](gen: Gen[A], trials: Int = 50)(check: A => Unit): Unit = {
    var i = 0
    while (i < trials) {
      check(gen.pureApply(Gen.Parameters.default, Seed(i.toLong)))
      i += 1
    }
  }

  private val uniGen: Gen[(Array[Double], Array[Double])] = for {
    n <- Gen.choose(3, 50)
    vals <- Gen.listOfN(n, Gen.choose(-20.0, 20.0))
  } yield (Array.tabulate(n)(_.toDouble), vals.toArray)

  test("SCREEN repairs always respect the speed band from the previous repair") {
    forAllSampled(uniGen) { case (ts, vs) =>
      val s = 1.5
      val out = Screen.clean1(ts, vs, s, 5.0)
      for (k <- 1 until out.length) {
        val dt = ts(k) - ts(k - 1)
        assert(math.abs(out(k) - out(k - 1)) <= s * dt + 1e-9, s"pair $k")
      }
    }
  }

  test("SpeedAcc repairs always respect the speed band from the previous repair") {
    forAllSampled(uniGen) { case (ts, vs) =>
      val s = 1.5
      val out = SpeedAcc.clean1(ts, vs, s, 0.8, 5.0)
      for (k <- 1 until out.length) {
        val dt = ts(k) - ts(k - 1)
        assert(math.abs(out(k) - out(k - 1)) <= s * dt + 1e-9, s"pair $k")
      }
    }
  }

  test("EWMA output is a convex combination of past observations (stays in range)") {
    forAllSampled(uniGen) { case (ts, vs) =>
      val pts = ts.zip(vs).map { case (t, v) => TimePoint.uni(t, v) }
      val out = Ewma().clean(pts)
      val lo = vs.min
      val hi = vs.max
      assert(out.forall(p => p.v(0) >= lo - 1e-9 && p.v(0) <= hi + 1e-9))
    }
  }

  test("LsGreedy terminates and leaves values finite") {
    forAllSampled(uniGen) { case (ts, vs) =>
      val out = LsGreedy.clean1(ts, vs)
      assert(out.forall(v => !v.isNaN && !v.isInfinite))
    }
  }

  test("HoloClean-lite never invents values outside the observed range") {
    forAllSampled(uniGen) { case (ts, vs) =>
      val out = HoloCleanLite.clean1(ts, vs, 1.0)
      val lo = vs.min
      val hi = vs.max
      assert(out.forall(v => v >= lo - 1e-9 && v <= hi + 1e-9))
    }
  }

  test("streaming advance over random chunkings equals one-shot advance") {
    val gen = for {
      n <- Gen.choose(2, 60)
      d <- Gen.choose(1, 3)
      vals <- Gen.listOfN(n * d, Gen.choose(-10.0, 10.0))
      gaps <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(0.0), 9 -> Gen.const(1.0))) // 10% duplicates
      s <- Gen.choose(0.5, 4.0)
      w <- Gen.choose(1, 6)
      chunk <- Gen.choose(1, 12)
    } yield (vals.grouped(d).zip(gaps.scanLeft(0.0)(_ + _)).map { case (v, t) =>
      TimePoint(t, v.toArray)
    }.toVector, SpeedConstraint(s, w.toDouble), chunk)
    def bits(ps: Seq[TimePoint]) = ps.map(p => (p.t +: p.v.toSeq).map(java.lang.Double.doubleToLongBits))
    forAllSampled(gen, 1000) { case (pts, sc, chunk) =>
      val whole = StreamingCleaner.advance(sc, None, pts, endOfStream = true)._1
      var prev: Option[TimePoint] = None
      var pending = Vector.empty[TimePoint]
      val emitted = Vector.newBuilder[TimePoint]
      pts.grouped(chunk).foreach { batch =>
        val (e, p, rest) = StreamingCleaner.advance(sc, prev, pending ++ batch, endOfStream = false)
        emitted ++= e; prev = p; pending = rest
      }
      emitted ++= StreamingCleaner.advance(sc, prev, pending, endOfStream = true)._1
      val all = emitted.result()
      assert(bits(all) == bits(whole))
      assert(bits(all) == bits(MtcscL(sc).clean(pts.toArray).toSeq))
    }
  }
}
