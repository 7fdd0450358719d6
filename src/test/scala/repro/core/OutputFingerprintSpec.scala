package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ErrorInjector, TimeSeriesGen}
import repro.eval.Harness

/** Bit-identity of every method's output, as a committed table of SHA-256
  * values over the output bits (each point's `t` and values as raw IEEE
  * bits, in order). A change to any repair, however small, changes a hash.
  *
  * The runs: the 13 registry cleaners and MTCSC-A at its defaults and at
  * m = 20, τ = 0.1 with β = 0.75 and β = 1.0, over TAO 20k × 3 with 10%
  * Together errors (w = 10) and gpsWalk 11k (w = 30), seeds 1–3; and L, C,
  * A and Uni over TAO 568k × 3 seed 1, long enough for the chunked batch
  * driver.
  *
  * A hash may change only in a change whose purpose is to change that
  * method's output. The generators call `Math.sin` and MTCSC-A's KL calls
  * `Math.log`, either of which may differ by an ulp on another JDK build
  * or CPU: the table was recorded on [[RecordedOn]], and a mismatch
  * elsewhere is reported as a platform difference, not re-recorded.
  */
class OutputFingerprintSpec extends AnyFunSuite {
  import OutputFingerprintSpec._

  test("every method's output hashes to the recorded table") {
    val got = fingerprints()
    val diff = (got.keySet ++ Expected.keySet).toSeq.sorted.filter(k => got.get(k) != Expected.get(k))
    assert(diff.isEmpty,
      s"${diff.size} of ${Expected.size} fingerprints differ (recorded on $RecordedOn, running on $platform): " +
        diff.map(k => s"$k: ${Expected.getOrElse(k, "(none)")} -> ${got.getOrElse(k, "(none)")}").mkString("; ") +
        "\nthe whole table as computed:\n" + got.toSeq.sorted.map { case (k, h) => s"""    "$k" -> "$h",""" }.mkString("\n"))
  }
}

object OutputFingerprintSpec {
  val RecordedOn = "OpenJDK 64-Bit Server VM 17.0.20+8-1-deb12u1-Debian, amd64"

  def platform: String = s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}, ${sys.props("os.arch")}"

  /** SHA-256 over the raw bits of every timestamp and value, in order. */
  def hash(xs: Array[TimePoint]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8 * (1 + xs.headOption.fold(0)(_.dim)))
    for (p <- xs) {
      buf.clear()
      buf.putLong(java.lang.Double.doubleToRawLongBits(p.t))
      p.v.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
      md.update(buf.array, 0, buf.position())
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def adaptive(sc: SpeedConstraint): Seq[(String, Cleaner)] = Seq(
    "MTCSC-A" -> MtcscA(sc),
    "MTCSC-A m=20 tau=0.1 beta=0.75" -> MtcscA(sc, m = 20, tau = 0.1, beta = 0.75),
    "MTCSC-A m=20 tau=0.1 beta=1.0" -> MtcscA(sc, m = 20, tau = 0.1, beta = 1.0))

  /** The short inputs, each named `tao20k-<seed>` or `gpsWalk11k-<seed>`,
    * with its truth, its dirty series and its window.
    */
  def shortInputs: Seq[(String, Array[TimePoint], Array[TimePoint], Double)] = for {
    seed <- 1L to 3L
    input <- {
      val tao = TimeSeriesGen.tao(20000, seed)
      val gps = TimeSeriesGen.gpsWalk(11000, seed)
      Seq((s"tao20k-$seed", tao, ErrorInjector.inject(tao, 0.10, ErrorInjector.Together, seed + 1), 10.0),
        (s"gpsWalk11k-$seed", gps.truth, gps.dirty, 30.0))
    }
  } yield input

  /** The hash of every run, keyed `input/method`. */
  def fingerprints(): Map[String, String] = {
    val short = for {
      (input, truth, dirty, w) <- shortInputs
      cfg = Harness.configFrom(truth, w)
      (name, cleaner) <- Harness.methods(cfg, truth).map(c => c.name -> c) ++ adaptive(cfg.sc)
    } yield s"$input/$name" -> hash(cleaner.clean(dirty))
    val truth = TimeSeriesGen.tao(568000, 1)
    val dirty = ErrorInjector.inject(truth, 0.10, ErrorInjector.Together, 2)
    val cfg = Harness.configFrom(truth, 10.0)
    val long = Seq(MtcscL(cfg.sc), MtcscC(cfg.sc), MtcscA(cfg.sc), MtcscUni(cfg.uniScs))
      .map(c => s"tao568k-1/${c.name}" -> hash(c.clean(dirty)))
    (short ++ long).toMap
  }

  val Expected: Map[String, String] = Map(
    "gpsWalk11k-1/CAE-M" -> "766ce928ada96ef7aaec7a66215a22a017a7d13a567fc6338387b6a569d74d2d",
    "gpsWalk11k-1/EWMA" -> "bfe645607ae6b6de32530771386d18821da0d2912b62d4ebe8520d2c2b655299",
    "gpsWalk11k-1/HTD" -> "ee599c34afea23f0cce82856a7c1d1d05201584184e38034ac65f03630c08885",
    "gpsWalk11k-1/HoloClean" -> "220c5674b59417356dba1c8e7a315b9932576e21fd01a82e4e04458218ce4cb3",
    "gpsWalk11k-1/LsGreedy" -> "a18b0e6f9c3780c88f8d99caec5b1f02c4374a45a3dbc901b3be672920a26dc4",
    "gpsWalk11k-1/MTCSC-A" -> "a8c3e1cf8e028c83e0e95846c7c8768a0a96271cbf4f186b1b61fd04b2773fea",
    "gpsWalk11k-1/MTCSC-A m=20 tau=0.1 beta=0.75" -> "a8c3e1cf8e028c83e0e95846c7c8768a0a96271cbf4f186b1b61fd04b2773fea",
    "gpsWalk11k-1/MTCSC-A m=20 tau=0.1 beta=1.0" -> "e23a6ac126a3b647082aa459ab53521be24c0b1d86862ceac390e903528e8000",
    "gpsWalk11k-1/MTCSC-C" -> "a8c3e1cf8e028c83e0e95846c7c8768a0a96271cbf4f186b1b61fd04b2773fea",
    "gpsWalk11k-1/MTCSC-G" -> "bfafa283fc208ff010384aeccf76ad8aa709b4c99fc8a62243df31f15dc1004b",
    "gpsWalk11k-1/MTCSC-L" -> "1b1cd62417946ddaf9950ed4a67fcd09dc7bae156efdc9b0a73936f06b8dfd07",
    "gpsWalk11k-1/MTCSC-Uni" -> "5fd8ff180770bdcb1cf67df3e034abe7e7828681eb15f6d01d3c0746b87f1ea9",
    "gpsWalk11k-1/RCSWS" -> "ada7ff20abef97064fd64a940e547cc5969a64727bce9615fef21c7c35f664c1",
    "gpsWalk11k-1/SCREEN" -> "203f3686cbf4ec607539cbdfa6b6c397a8acc7aadf6a111822a956a94f3e91fe",
    "gpsWalk11k-1/SpeedAcc" -> "5ac0cdd8ae547a29dfae36a7042f1ca2f281ea3a3b4565ac4d8748221ec51483",
    "gpsWalk11k-1/TranAD" -> "cedfcba5f1d8ff992ecb37581668211534bb68d7d4cbb62d2b35444f0bc29a07",
    "gpsWalk11k-2/CAE-M" -> "c76c8b4cf38117dc324be29eead08dc583c1b1cb243a600f0a54353df7067195",
    "gpsWalk11k-2/EWMA" -> "6f8e562cd83e58d137a80e593dfd310ef6b3d0eb427f8104c0640336a50cddf0",
    "gpsWalk11k-2/HTD" -> "d903b426e240260c23f3396edeb4c71fa8a98f55206b9c7cf833ab92e33917df",
    "gpsWalk11k-2/HoloClean" -> "14ca4b7f877c1af553b4810ec61fb31760aa510efae65b0c75c36a5122e9828d",
    "gpsWalk11k-2/LsGreedy" -> "162b3a68ed5f5a6a5a9a433573ff403e3b65a167ac299baa3a001c2c36dad60f",
    "gpsWalk11k-2/MTCSC-A" -> "0ad2c32c9e79174e00495e8aac2acf2ad9096a0017505bbc939ff2792df57f72",
    "gpsWalk11k-2/MTCSC-A m=20 tau=0.1 beta=0.75" -> "c86fec17dc777b5b9283e5caab5c32f0ffa7a998307a7549a57cce67ef13deb1",
    "gpsWalk11k-2/MTCSC-A m=20 tau=0.1 beta=1.0" -> "94136c2629cbfd550ecdc37b0d16ffddd07594dcbccfa5bedf1998afe34e9e3b",
    "gpsWalk11k-2/MTCSC-C" -> "35cb412dc7a18c20adf3619c12f408d29400ae36c79073f5df2a4d3d3a6feb10",
    "gpsWalk11k-2/MTCSC-G" -> "aa87d5237bc3f6ae9fde31d09d4e8204abea494f70f39e7d29df3f363fdee559",
    "gpsWalk11k-2/MTCSC-L" -> "616347451761c911dd8f5936569aad4953b465927b8f3507b63487d0905e9151",
    "gpsWalk11k-2/MTCSC-Uni" -> "595199966f0f1ab17c85c81c563215b4d35f741c9a30b7752a50ddb957608351",
    "gpsWalk11k-2/RCSWS" -> "3a06b8812d2c72a459322415f94fc48b1bb9ec15b75e72fd27322799ab5764e2",
    "gpsWalk11k-2/SCREEN" -> "5ebb6e6824bb10815c44d0d8cf5ec6e9c841aef9c5bd5544019ff600211bf8b3",
    "gpsWalk11k-2/SpeedAcc" -> "a3bcaa06095a1ddea77bed178a4b0d1c1de644d63136d8f74507480c1d4d9739",
    "gpsWalk11k-2/TranAD" -> "cfe320c83e629c3525898c1b9fb97e7276c5c96e6bb79f8c250aecdce4f7ea3d",
    "gpsWalk11k-3/CAE-M" -> "3a1b289e8551626da15b7ff8339aeeda3811f739f9e5fa2a163f96dcb720b4d5",
    "gpsWalk11k-3/EWMA" -> "daef2c4730b45097ce2d9519d7b7329aa7ad44f3782070dc8082a760c350a3b5",
    "gpsWalk11k-3/HTD" -> "e98ac8ccc9ed78d058d029a0ee89e00241299595563b2855599ce254a0c8bdaa",
    "gpsWalk11k-3/HoloClean" -> "835b104efe0e8660c1a68f6042704353d5e56b877f414774847aed85d282cbac",
    "gpsWalk11k-3/LsGreedy" -> "a5bbb0ab26978be80acdb8dfaa60295fc0356fb32f797d00ef2b16304643382c",
    "gpsWalk11k-3/MTCSC-A" -> "5c5e86bc62c4fe1378b13a3934a1bd0821cf3d5934498768b1f48212e7a06df0",
    "gpsWalk11k-3/MTCSC-A m=20 tau=0.1 beta=0.75" -> "af0ad7033f78589c103d58ce3a561ef8b557a437130f7b66032dc59fa6c3a760",
    "gpsWalk11k-3/MTCSC-A m=20 tau=0.1 beta=1.0" -> "c5858c86e325fedd593a322ac09af55cd9ba029f10a0c389e0da4a9210738ae3",
    "gpsWalk11k-3/MTCSC-C" -> "5c5e86bc62c4fe1378b13a3934a1bd0821cf3d5934498768b1f48212e7a06df0",
    "gpsWalk11k-3/MTCSC-G" -> "15eb3e69aeb16c955b59fc9973210cd71f1b01c1b534a9e6460e70dd6e5427b0",
    "gpsWalk11k-3/MTCSC-L" -> "06497f17ff0d0c7bbc16dd062724fb18b7920bb78158e5c5c0b23df95c013b10",
    "gpsWalk11k-3/MTCSC-Uni" -> "bbf5c8522cb4b3f3f6d6676749606ff0ceb7bd7c505bf95fa95f824d335e126d",
    "gpsWalk11k-3/RCSWS" -> "b5add4c607481b75e6a444f2f6150b10df23da296331528b28f5d11dd99b7ff0",
    "gpsWalk11k-3/SCREEN" -> "b50ee6b7f9a2e14908a82cd3880b3999d041c692d4a9d4196291ce35ed06e425",
    "gpsWalk11k-3/SpeedAcc" -> "47fdff0d15d41206edb2dad9c90ad4daa4c113de8d98ef90ae43705facd0f2d4",
    "gpsWalk11k-3/TranAD" -> "0834a1831ee0166ac5f72790cb1c9c9aad6de408fd0a37cfbdc386ec81550be5",
    "tao20k-1/CAE-M" -> "1cb341d6944bcc5a8f15b2d9f1448f81b9a2873a410a9497f03e76f44f066a29",
    "tao20k-1/EWMA" -> "e88ffc92f9c356d3aa4be323ebcb8e0325150ffbefe749343ff409ad63015997",
    "tao20k-1/HTD" -> "7d7f850ddff4fff9684b2a9819225bfb5ea7363333ee7271fdf61523175b1ccc",
    "tao20k-1/HoloClean" -> "7aff97799501f09dd4890d626187de1555cc83df48dea7586aa16a30dd80b3e9",
    "tao20k-1/LsGreedy" -> "6d5d447f4b97f3c9eb22c2f1fb03201b67fe56900632d61ae998ceddf3503034",
    "tao20k-1/MTCSC-A" -> "160a70413bc9436b7f1b6fdb083d5b242c7ba0125f18bce24e3e325a42971443",
    "tao20k-1/MTCSC-A m=20 tau=0.1 beta=0.75" -> "4fb8f17f566c3abd4031f8304cdd401eae81241a3a2bfdcc302b2d566be8f4c7",
    "tao20k-1/MTCSC-A m=20 tau=0.1 beta=1.0" -> "9d9167ba215932b48f2c94e7b6276f09c81bef8246c073fd8d7db15502df6df9",
    "tao20k-1/MTCSC-C" -> "881ea31a1fe053b14fbc524d819eb915a92e01dc23081a9191b5f5880ada92b9",
    "tao20k-1/MTCSC-G" -> "d8331f63f4995d3828293df06f7ee67151d77a91f5fee85c33193068db2be163",
    "tao20k-1/MTCSC-L" -> "689c2d0f78e60bd5723abb35b631c9343e2b01c9ee95d27a0daa3fccc16bb095",
    "tao20k-1/MTCSC-Uni" -> "6f33efc1acd9c954ef3cdfe88a4a72bb6c09ce338255f914736ba6e40502c62c",
    "tao20k-1/RCSWS" -> "0cf7428bac04d719b549fe62d21fdda344645926982c4d9f5c6b49b4bd38137a",
    "tao20k-1/SCREEN" -> "b7ee5c3557beabce5e792905e019acf328c2c0ca0d582eb7bc12f22d1326230f",
    "tao20k-1/SpeedAcc" -> "58c2eaa2e6d5b26479668767418c8a945422d5f2916f4d7083d441ad292edd22",
    "tao20k-1/TranAD" -> "490e21b7a41c58c77b1fe5a43db968bbed606bd548f3e85fae7c4a86fc527fb4",
    "tao20k-2/CAE-M" -> "23fdad409855181a08bf2ff2d84794db8729f0be0be4c67c97dc3262588e1e56",
    "tao20k-2/EWMA" -> "4340db709b3ac575f8e42daba11a256dc400ea161394f25f112aa7260fd2fc65",
    "tao20k-2/HTD" -> "40d9436d0272afec0dcf410c5e0f1e51d34dc6cb9dd719d20edfc5667d32eadd",
    "tao20k-2/HoloClean" -> "d2fd439de285b21390f2424073cc7b16208e96e852cbc4e81bdde5a123e57684",
    "tao20k-2/LsGreedy" -> "a30a3594f9be3379873c5942f2c900a3e927115e17940d5bf98235af9a473ee2",
    "tao20k-2/MTCSC-A" -> "bfa3846011ce650b636524c568fc9c7f824888bddac9253681ed791a4f59b777",
    "tao20k-2/MTCSC-A m=20 tau=0.1 beta=0.75" -> "4c7f37c436c138935ffffb393815d51e8a022488b8a4935bab740913aba110b5",
    "tao20k-2/MTCSC-A m=20 tau=0.1 beta=1.0" -> "95a352b22a0e9a16230f410ee6123ce786f68f6a509936167dd0eacd8b303c1e",
    "tao20k-2/MTCSC-C" -> "5edcee6f5ac01ea0ecebb98936abd2e8c1804c228eef779c4b9f11ad6aac50e7",
    "tao20k-2/MTCSC-G" -> "49930d5093137ac8adc0cbc9ad056417a6679280b1df0a6a3c9c12226e170d6c",
    "tao20k-2/MTCSC-L" -> "a2d01ca7869a23d34ceff0feae3e46293c364f41ef44e8f6b4be1251ca46356b",
    "tao20k-2/MTCSC-Uni" -> "4aad04073a0985d74278867c775e40649c60995786bcb0f83b73d31abd2cacc0",
    "tao20k-2/RCSWS" -> "02c25250ce1fc803227452f2403f87a8271fa0a76f0a8051288025f3f8fde3a1",
    "tao20k-2/SCREEN" -> "1ea71a6bf564b8e1fc02025152e5195b837dc9e2b40fb17513c4c5f9a188545f",
    "tao20k-2/SpeedAcc" -> "e2d0633a1903c33564f770237c1b20404042053ca484bb3ea060a0a3194cc263",
    "tao20k-2/TranAD" -> "3e751f757b38f7cb2cb2e2e38892b797bb81dd69a349ec5549a71e1b4d5c0afb",
    "tao20k-3/CAE-M" -> "91582f0f82eb97673d0f2fa9a173aff74705a9c5f7dee0a3f5ff1ff88fcf3977",
    "tao20k-3/EWMA" -> "7a315cfc43d93c1b3582931fdc967a0f7a1966f1b6738696ae88adbab4c46d95",
    "tao20k-3/HTD" -> "e86b4a5da52d31d9249427222c851404970feccb611e912c5e20c7057bb46687",
    "tao20k-3/HoloClean" -> "176c2ed474857caf4f50d6b2976c49b811cad1798d5ecc4d54a5dbdc48b11127",
    "tao20k-3/LsGreedy" -> "a1531e459580261b8767e066182d4541bd7b2a1655d4176b8a9999d31b246452",
    "tao20k-3/MTCSC-A" -> "5e37f7d449b0e8a0409e2036f9fa700c4363a4df9bf018a65573a41a1eed5840",
    "tao20k-3/MTCSC-A m=20 tau=0.1 beta=0.75" -> "a56d5370d1e8fff83e307ce7caea715217a66aac9dadad17c1d97dca5580d646",
    "tao20k-3/MTCSC-A m=20 tau=0.1 beta=1.0" -> "71d638315e5f35e583d97a2a448f5fa1768d404400a3bc774793a31f6f1fa810",
    "tao20k-3/MTCSC-C" -> "5e37f7d449b0e8a0409e2036f9fa700c4363a4df9bf018a65573a41a1eed5840",
    "tao20k-3/MTCSC-G" -> "ea4e2385ef78c547bc2b4ef8b861979a2e4c89295333e22467e57826a591add8",
    "tao20k-3/MTCSC-L" -> "213143702c226ca995462e536d51d6344f414b967bf8f6d3bca4e2401d834de4",
    "tao20k-3/MTCSC-Uni" -> "f77ea1455ff3935019fa7323060c5edf5c165c610a421079e53c406756a5c080",
    "tao20k-3/RCSWS" -> "9a6383051394d0a5b7687afb51f3f4dcd8c16fe4236d8d9ccf42040bef712ddb",
    "tao20k-3/SCREEN" -> "be06bef49092be9376e7b4a69527ad2b36a9a01fb1708ed7690f756fb627e3d4",
    "tao20k-3/SpeedAcc" -> "91e850227b3e14aa776e723e0f370d36cfc84db9b1c88c524790dec6a22e459f",
    "tao20k-3/TranAD" -> "eb3507d223fa7f5816db7870e78357d9f33f61c8234ccbb47f0999311af68b17",
    "tao568k-1/MTCSC-A" -> "063354ee2332624a3a50dd68c75c60fe2877839cea18a43ec23a84c8d941554a",
    "tao568k-1/MTCSC-C" -> "f2fac41f7b3d7535832cce039bf1292e4afb0ac5bb4c9d53a7293d445e73e251",
    "tao568k-1/MTCSC-L" -> "df8e977006f9a1dfae255554976e336607a0b0b6abd846cb6a2734462e8d2379",
    "tao568k-1/MTCSC-Uni" -> "ecc5ee623775a173f726321fc86eb355e734928effb24be9ee86f3b80eb96e5e",
  )
}
