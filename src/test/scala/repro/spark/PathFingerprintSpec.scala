package repro.spark

import repro.SparkSpec
import repro.core._
import repro.core.OutputFingerprintSpec.{Expected, hash, shortInputs}
import repro.eval.Harness

/** The Spark batch and streaming paths against the kernel's recorded
  * fingerprints ([[OutputFingerprintSpec]]): on its short inputs, each
  * path's output hashes to the kernel's, so it repairs as the kernel does,
  * bit for bit, with no table of its own.
  */
class PathFingerprintSpec extends SparkSpec {

  private lazy val inputs = shortInputs.map { case (input, truth, dirty, w) => (input, Harness.configFrom(truth, w), dirty) }

  test("Spark clean + collectSeries of L, C, A and Uni hash to the kernel fingerprints") {
    // Seed 1 of each input: every Spark job costs about 0.2 s, whatever its size.
    for ((input, cfg, dirty) <- inputs.take(2)) {
      val ds = SparkCleaner.toDS(spark, Seq(1L -> dirty)).cache()
      for (cleaner <- Seq(MtcscL(cfg.sc), MtcscC(cfg.sc), MtcscA(cfg.sc), MtcscUni(cfg.uniScs))) {
        val key = s"$input/${cleaner.name}"
        assert(hash(SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner))(1L)) == Expected(key), key)
      }
      ds.unpersist()
    }
  }

  test("StreamingCleaner.advance of L over 16-point chunks hashes to the kernel fingerprint") {
    for ((input, cfg, dirty) <- inputs) {
      val chunks = dirty.grouped(16).toSeq
      val emitted = Vector.newBuilder[TimePoint]
      var prev = Option.empty[TimePoint]
      var pending = Vector.empty[TimePoint]
      for ((chunk, i) <- chunks.zipWithIndex) {
        val (out, p, rest) = StreamingCleaner.advance(cfg.sc, prev, pending ++ chunk, endOfStream = i == chunks.size - 1)
        emitted ++= out
        prev = p
        pending = rest
      }
      assert(pending.isEmpty, input)
      assert(hash(emitted.result().toArray) == Expected(s"$input/MTCSC-L"), input)
    }
  }
}
