package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core._

/** Spark dataflow integration for the streaming FDM algorithms.
  *
  * Three execution modes over a `(id, group, features)` DataFrame:
  *  1. [[runSequential]] — faithful one-pass driver-side execution via
  *     `toLocalIterator` (the paper's streaming model verbatim);
  *  2. [[runDistributed]] — per-partition stream processing (`mapPartitions`)
  *     whose candidates form a small coreset that is merged and re-streamed
  *     on the driver;
  *  3. `stream.StructuredFDM` — a Structured Streaming `foreachBatch` job
  *     (the repro band's target), in its own module.
  */
object SparkFDM {

  /** Flat row mirror of [[Element]] for Dataset encoders. */
  final case class ElementRow(id: Long, group: Int, features: Array[Double]) {
    def toElement: Element = Element(id, group, features)
  }

  /** Typed view of a `(id, group, features)` DataFrame. */
  def toDS(df: DataFrame): Dataset[ElementRow] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("id").cast("long"), col("group").cast("int"), col("features")).as[ElementRow]
  }

  /** Collect the whole DataFrame in its current order — test-scale only. */
  def collectElements(df: DataFrame): IndexedSeq[Element] =
    toDS(df).collect().map(_.toElement).toIndexedSeq

  /** Faithful one-pass streaming run on the driver: elements cross in
    * partition order through `toLocalIterator`, memory stays bounded by the
    * state's candidates.
    */
  def runSequential(df: DataFrame, state: FdmState): FdmResult = {
    val it = toDS(df).toLocalIterator()
    while (it.hasNext) state.process(it.next().toElement)
    state.finish()
  }

  /** Distributed run: each partition streams its elements through a fresh
    * state built by `mkState` and emits the candidate contents (a coreset of
    * O(km·logΔ/ε) elements per partition); the driver merges the coresets by
    * re-streaming them, in id order, through `finalState` and post-processes
    * once. Any element a partition discarded is within µ of a kept element,
    * so the merged max-min guarantee degrades only by the usual factor-2
    * triangle-inequality argument.
    */
  def runDistributed(df: DataFrame, mkState: () => FdmState, finalState: FdmState): FdmResult = {
    val spark = df.sparkSession
    import spark.implicits._
    val coreset: Array[ElementRow] = toDS(df)
      .mapPartitions { it =>
        val st = mkState()
        it.foreach(r => st.process(r.toElement))
        st.contents.iterator.map(e => ElementRow(e.id, e.group, e.features))
      }
      .collect()
    val merged = coreset.map(_.toElement).distinct.sortBy(_.id)
    merged.foreach(finalState.process)
    finalState.finish()
  }
}
