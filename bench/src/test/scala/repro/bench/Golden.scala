package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import org.scalatest.Assertions._

/** The golden file of printed rows: every table, sweep, adaptive and
  * application report the bench suites print, with the time column
  * blanked, in `bench/src/test/resources/printed-rows.txt`. Its sections
  * each start with a line `### <key>`. A report whose rows differ from its
  * section fails its test; the rows it printed, blanked, are then written
  * to `target/printed-rows/<key>.txt` under the bench project, ready to be
  * compared with the section or, when a change is meant to move them,
  * copied into it.
  */
object Golden {

  private val Marker = "### "

  private lazy val sections: Map[String, String] = {
    val in = getClass.getResourceAsStream("/printed-rows.txt")
    val text = if (in == null) "" else try new String(in.readAllBytes(), UTF_8) finally in.close()
    text.split(s"(?m)^(?=$Marker)").filter(_.startsWith(Marker)).map { s =>
      val nl = s.indexOf('\n')
      s.substring(Marker.length, nl) -> (s.substring(nl + 1).stripTrailing() + "\n")
    }.toMap
  }

  /** `text` with every row's time (`   12.34 ms` at its end) as ` - ms`. */
  private def blank(text: String): String = text.replaceAll("(?m) +\\d+\\.\\d+ ms$", " - ms")

  /** Prints `text`, then checks it, blanked, against section `key`. */
  def printed(key: String, text: String): Unit = {
    println(text)
    val got = blank(text).stripTrailing() + "\n"
    val want = sections.get(key)
    if (!want.contains(got)) {
      val file = Paths.get("target", "printed-rows", s"$key.txt").toAbsolutePath
      Files.createDirectories(file.getParent)
      Files.write(file, got.getBytes(UTF_8))
      val first = want.fold("no such section") { w =>
        val (a, b) = (w.linesIterator.toSeq, got.linesIterator.toSeq)
        val i = a.zipAll(b, "", "").indexWhere { case (x, y) => x != y }
        s"line ${i + 1} reads\n  ${b.lift(i).getOrElse("(none)")}\nwhere the file has\n  ${a.lift(i).getOrElse("(none)")}"
      }
      fail(s"printed rows of $key differ from printed-rows.txt: $first\n(all rows in $file)")
    }
  }
}
