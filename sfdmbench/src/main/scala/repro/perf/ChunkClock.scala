package repro.perf

import repro.core.{Element, FdmResult, FdmState}

/** An [[FdmState]] that forwards to `inner` and times its stream in chunks
  * of `chunk` arrivals, so the clock is read twice per chunk rather than
  * twice per element. Chunk `c` covers arrivals `[c·chunk, min((c+1)·chunk, n))`.
  * On the Structured Streaming path a chunk is exactly one micro-batch,
  * because `StructuredFDM.run` cuts its batches at the same size.
  */
final class ChunkClock(inner: FdmState, chunk: Int, n: Int) extends FdmState {
  require(chunk >= 1 && n >= 1, s"chunk=$chunk n=$n")
  private val chunks = (n + chunk - 1) / chunk
  val chunkStart = new Array[Long](chunks)
  val chunkEnd = new Array[Long](chunks)
  private var count = 0
  var finishStart = 0L
  var finishEnd = 0L

  override def process(x: Element): Unit = {
    if (count % chunk == 0) chunkStart(count / chunk) = System.nanoTime()
    inner.process(x)
    count += 1
    if (count % chunk == 0 || count == n) chunkEnd((count - 1) / chunk) = System.nanoTime()
  }

  override def finish(): FdmResult = {
    finishStart = System.nanoTime()
    val r = inner.finish()
    finishEnd = System.nanoTime()
    r
  }

  override def contents: IndexedSeq[Element] = inner.contents

  /** Arrivals seen so far; equals `n` once the whole stream went through. */
  def arrivals: Int = count

  /** Time spent in `inner.process` for each chunk. */
  def chunkNs: Array[Long] = Array.tabulate(chunks)(c => chunkEnd(c) - chunkStart(c))

  /** Number of arrivals in chunk `c`. */
  def chunkSize(c: Int): Int = math.min(chunk, n - c * chunk)
}
