package repro.stream

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core.{Element, FdmResult, FdmState}

/** Structured Streaming execution of the streaming FDM algorithms — the
  * repro band's target: a streaming query whose `foreachBatch` sink folds
  * each micro-batch, in arrival order, into the bounded FDM state (the
  * per-guess candidates — O(km·logΔ/ε) elements, independent of the stream
  * length). Post-processing runs once at end-of-stream.
  *
  * The stream carries `(position, element)` pairs; the position is the
  * element's index in the input and defines the logical arrival order across
  * micro-batches. The candidates are order-insensitive for the approximation
  * guarantees (Theorems 2 and 4 hold for any arrival order), but each batch
  * is replayed in position order so a Structured Streaming run is
  * bit-identical to the sequential one-pass run on the same permutation —
  * asserted in tests.
  */
object StructuredFDM {

  /** Feed `elements` (in order) through `state` as a MemoryStream-backed
    * streaming query with micro-batches of `batchSize`, then post-process.
    *
    * @return the FDM result plus the number of micro-batches executed
    */
  def run(
      spark: SparkSession,
      elements: Seq[Element],
      state: FdmState,
      batchSize: Int = 4096,
  ): (FdmResult, Long) = {
    import spark.implicits._
    val source = MemoryStream[(Int, Element)](spark)
    val sink = new Sink(state)
    val query = source
      .toDS()
      .writeStream
      .outputMode("append")
      .foreachBatch { (batch: Dataset[(Int, Element)], batchId: Long) =>
        // The state lives on the driver; the batch is collected there, as a
        // global `orderBy` would plan a shuffle for a few thousand rows.
        sink.fold(batchId, batch.collect())
      }
      .start()
    try {
      elements.iterator.zipWithIndex
        .map(_.swap)
        .grouped(batchSize)
        .foreach { chunk =>
          source.addData(chunk)
          query.processAllAvailable() // barrier per chunk → genuinely stateful across batches
        }
      query.processAllAvailable()
    } finally query.stop()
    (state.finish(), sink.batches)
  }

  /** The `foreachBatch` sink: folds each micro-batch into `state` once.
    * `foreachBatch` is at-least-once, so after a failure Spark may deliver a
    * batch again under the same `batchId`. Batch ids ascend, so a batch whose
    * id is at or below the last folded one is a redelivery and is skipped.
    * [[run]] starts one query without a checkpoint and never restarts it, so
    * there the skip cannot fire yet; Spark re-delivers a `batchId` only when
    * a query restarts from its checkpoint, which the sink is ready for.
    */
  private[stream] final class Sink(state: FdmState) {
    private var last = -1L

    /** Micro-batches folded, redeliveries not counted. */
    var batches = 0L

    /** Feeds `rows` to the state in position order (the logical arrival
      * order), unless `batchId` is a redelivery; `rows` is evaluated only for
      * a new batch.
      */
    def fold(batchId: Long, rows: => Array[(Int, Element)]): Unit =
      if (batchId > last) {
        rows.sortBy(_._1).foreach(p => state.process(p._2))
        last = batchId
        batches += 1
      }
  }
}
