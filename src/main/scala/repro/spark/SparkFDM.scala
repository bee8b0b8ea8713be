package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core._

/** Spark dataflow integration for the streaming FDM algorithms.
  *
  * Two execution modes over a `(id, group, features)` DataFrame:
  *  1. [[runSequential]] — faithful one-pass driver-side execution via
  *     `toLocalIterator` (the paper's streaming model verbatim);
  *  2. `stream.StructuredFDM` — a Structured Streaming `foreachBatch` job,
  *     in its own module.
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
}
