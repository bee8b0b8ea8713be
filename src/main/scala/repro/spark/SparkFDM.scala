package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._

/** Conversions from a `(id, group, features)` DataFrame to [[Element]]s.
  * The streaming FDM algorithms run on Spark through
  * `stream.StructuredFDM`, a Structured Streaming `foreachBatch` job, or on
  * collected elements through `FdmState.processAll`.
  */
object SparkFDM {

  /** Collect the whole DataFrame to the driver in its current order. The
    * experiments and the benchmark collect full-scale datasets (30,000–100,000
    * rows) this way. The encoder reads the constructor fields `id, group,
    * features`; each [[Element]] computes its `sqNorm` on construction.
    */
  def collectElements(df: DataFrame): IndexedSeq[Element] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("id").cast("long"), col("group").cast("int"), col("features")).as[Element]
      .collect().toIndexedSeq
  }
}
