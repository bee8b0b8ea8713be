package repro.perf

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** One layer call: `[start, end)` in `System.nanoTime` units, the span that
  * caused it (`-1` for a root) and the solve it belongs to (`-1` for set-up).
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, solve: Int) {
  def ns: Long = end - start
}

/** In-memory span log, written out once when the run ends. Spans are added
  * from timestamps the benchmark takes around its calls into each layer, so
  * recording a span never puts work on the program's own hot path.
  */
final class Trace {
  val spans = ArrayBuffer.empty[Span]

  def add(name: String, start: Long, end: Long, parent: Int, solve: Int): Int = {
    val id = spans.length
    spans += Span(id, name, start, end, parent, solve)
    id
  }

  /** Self time of every span: its duration minus the part of its interval
    * that its children cover (overlapping children are counted once).
    */
  def selfNs: Array[Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    Array.tabulate(spans.length) { i =>
      val s = spans(i)
      var covered = 0L
      var reach = s.start
      children.getOrElse(i, ArrayBuffer.empty).sortBy(_.start).foreach { c =>
        val from = math.max(c.start, reach)
        val to = math.min(c.end, s.end)
        if (to > from) { covered += to - from; reach = to }
      }
      math.max(0L, s.ns - covered)
    }
  }

  /** Per-layer self time over the solves in `solves`: (name, count, self ns),
    * in order of first appearance.
    */
  def selfTable(solves: Set[Int]): Seq[(String, Int, Long)] = {
    val self = selfNs
    val rows = scala.collection.mutable.LinkedHashMap.empty[String, (Int, Long)]
    spans.foreach { s =>
      if (solves.contains(s.solve)) {
        val (c, t) = rows.getOrElse(s.name, (0, 0L))
        rows(s.name) = (c + 1, t + self(s.id))
      }
    }
    rows.iterator.map { case (n, (c, t)) => (n, c, t) }.toSeq
  }

  /** One JSON object per line, times relative to the first span. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val t0 = if (spans.isEmpty) 0L else spans.map(_.start).min
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"name":"${s.name}","start_ns":${s.start - t0},"end_ns":${s.end - t0},"parent":${s.parent},"solve":${s.solve}}""")
    } finally out.close()
  }
}
