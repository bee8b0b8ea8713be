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

  /** Flat row mirror of [[Element]] for Dataset encoders. */
  final case class ElementRow(id: Long, group: Int, features: Array[Double]) {
    def toElement: Element = Element(id, group, features)
  }

  /** Collect the whole DataFrame in its current order — test-scale only. */
  def collectElements(df: DataFrame): IndexedSeq[Element] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("id").cast("long"), col("group").cast("int"), col("features")).as[ElementRow]
      .collect().map(_.toElement).toIndexedSeq
  }
}
