package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Property-based checks of the paper's propositions and the algorithms'
  * guaranteed invariants over random series. Raw ScalaCheck generators
  * are sampled with fixed seeds (the scalatest/scalacheck bridge artifact
  * is not available offline).
  */
class PropertiesSpec extends AnyFunSuite {

  /** Deterministically sample `gen` `trials` times and run the check. */
  private def forAllSampled[A](gen: Gen[A], trials: Int = 60)(check: A => Unit): Unit = {
    var i = 0
    while (i < trials) {
      check(gen.pureApply(Gen.Parameters.default, Seed(i.toLong)))
      i += 1
    }
  }

  private val seriesGen: Gen[Array[TimePoint]] = for {
    n <- Gen.choose(2, 40)
    d <- Gen.choose(1, 4)
    vals <- Gen.listOfN(n * d, Gen.choose(-10.0, 10.0))
  } yield vals.grouped(d).zipWithIndex.map { case (v, i) =>
    TimePoint(i.toDouble, v.toArray)
  }.toArray

  private val scGen: Gen[SpeedConstraint] = for {
    s <- Gen.choose(0.5, 5.0)
    w <- Gen.choose(1, 8)
  } yield SpeedConstraint(s, w.toDouble)

  private val comboGen: Gen[(Array[TimePoint], SpeedConstraint)] =
    for { xs <- seriesGen; sc <- scGen } yield (xs, sc)

  test("Proposition 3.1: range of a later fixed point is contained in the earlier one's") {
    val g = for {
      sc <- scGen
      xj0 <- Gen.choose(-5.0, 5.0); yj0 <- Gen.choose(-5.0, 5.0)
      dx <- Gen.choose(-5.0, 5.0); dy <- Gen.choose(-5.0, 5.0)
      cx <- Gen.choose(-5.0, 5.0); cy <- Gen.choose(-5.0, 5.0)
    } yield (sc, xj0, yj0, dx, dy, cx, cy)
    forAllSampled(g, 200) { case (sc, xj0, yj0, dx, dy, cx, cy) =>
      val xj = TimePoint(0, Array(xj0, yj0))
      val norm = math.max(math.sqrt(dx * dx + dy * dy), 1e-9)
      val scale = math.min(1.0, sc.s / norm) // force satisfy(xj, xi)
      val xi = TimePoint(1, Array(xj0 + dx * scale, yj0 + dy * scale))
      val xk = TimePoint(2, Array(xi.v(0) + cx, xi.v(1) + cy))
      if (sc.speedOk(xi, xj) && sc.speedOk(xk, xi))
        assert(sc.speedOk(xk, xj), "triangle containment violated")
    }
  }

  test("Proposition 3.2: the interpolated repair is compatible with the previous fix") {
    val g = for {
      sc <- scGen
      px <- Gen.choose(-5.0, 5.0); py <- Gen.choose(-5.0, 5.0)
      frac <- Gen.choose(0.1, 0.9); tm <- Gen.choose(2.0, 6.0)
    } yield (sc, px, py, frac, tm)
    forAllSampled(g, 200) { case (sc, px, py, frac, tm) =>
      val p = TimePoint(0, Array(px, py))
      val m = TimePoint(tm, Array(px + sc.s * tm * 0.9, py)) // compatible with p
      val tk = frac * tm
      val alpha = tk / tm
      val xk = TimePoint(tk, Array.tabulate(2)(l => alpha * (m.v(l) - p.v(l)) + p.v(l)))
      assert(sc.speedOk(p, xk))
    }
  }

  test("MTCSC-L output always passes consecutive speed tests (soundness)") {
    forAllSampled(comboGen) { case (xs, sc) =>
      val out = MtcscL(sc).clean(xs)
      (1 until out.length).foreach(i => assert(sc.speedOk(out(i - 1), out(i)), s"pair $i"))
    }
  }

  test("MTCSC-C output always passes consecutive speed tests (soundness)") {
    forAllSampled(comboGen) { case (xs, sc) =>
      val out = MtcscC(sc).clean(xs)
      (1 until out.length).foreach(i => assert(sc.speedOk(out(i - 1), out(i)), s"pair $i"))
    }
  }

  test("MTCSC-G output satisfies the windowed constraint globally") {
    forAllSampled(comboGen) { case (xs, sc) =>
      assert(Reference.satisfiedBy(sc, MtcscG(sc).clean(xs)))
    }
  }

  test("global fix count is minimal (vs exact solver) on small series") {
    val smallGen = for {
      n <- Gen.choose(2, 12)
      d <- Gen.choose(1, 2)
      vals <- Gen.listOfN(n * d, Gen.choose(-5.0, 5.0))
      sc <- scGen
    } yield (vals.grouped(d).zipWithIndex.map { case (v, i) =>
      TimePoint(i.toDouble, v.toArray)
    }.toArray, sc)
    forAllSampled(smallGen, 40) { case (xs, sc) =>
      assert(MtcscG.fixList(xs, sc).length == ExactSolver.minFixCount(xs, sc))
    }
  }

  test("global fix count lower-bounds local and cluster fix counts") {
    forAllSampled(comboGen) { case (xs, sc) =>
      def fixes(out: Array[TimePoint]) =
        xs.indices.count(i => !out(i).sameValues(xs(i), 1e-7))
      val g = MtcscG.fixList(xs, sc).length
      assert(g <= fixes(MtcscL(sc).clean(xs)))
      assert(g <= fixes(MtcscC(sc).clean(xs)))
    }
  }

  test("cleaners preserve timestamps and length") {
    forAllSampled(comboGen) { case (xs, sc) =>
      for (cleaner <- Seq[Cleaner](MtcscG(sc), MtcscL(sc), MtcscC(sc))) {
        val out = cleaner.clean(xs)
        assert(out.length == xs.length)
        assert(out.indices.forall(i => out(i).t == xs(i).t))
      }
    }
  }

  test("cleaners never mutate their input") {
    forAllSampled(comboGen, 30) { case (xs, sc) =>
      val snapshot = TimePoint.copyOf(xs)
      Seq[Cleaner](MtcscG(sc), MtcscL(sc), MtcscC(sc), MtcscA(sc)).foreach(_.clean(xs))
      assert(xs.indices.forall(i => xs(i).sameValues(snapshot(i), 0.0)))
    }
  }

  test("an already-satisfying series is a fixpoint of MTCSC-L") {
    forAllSampled(comboGen) { case (xs, sc) =>
      val out1 = MtcscL(sc).clean(xs)
      val out2 = MtcscL(sc).clean(out1)
      out1.indices.foreach(i => assert(out2(i).sameValues(out1(i), 1e-6)))
    }
  }
}
