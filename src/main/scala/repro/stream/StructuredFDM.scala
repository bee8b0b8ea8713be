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
    var batches = 0L
    val query = source
      .toDS()
      .writeStream
      .outputMode("append")
      .foreachBatch { (batch: Dataset[(Int, Element)], _: Long) =>
        // Micro-batch → state, in logical arrival order. The state lives on
        // the driver; the batch is collected and sorted there, as a global
        // `orderBy` would plan a shuffle for a few thousand rows.
        batch.collect().sortBy(_._1).foreach(p => state.process(p._2))
        batches += 1
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
    (state.finish(), batches)
  }
}
