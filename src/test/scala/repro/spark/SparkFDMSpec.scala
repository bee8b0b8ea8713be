package repro.spark

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGen}
import repro.core._

/** Spark dataflow layer: conversions. */
class SparkFDMSpec extends SparkSpec {

  private def toDF(xs: Seq[Element]): DataFrame = {
    import spark.implicits._
    xs.map(e => (e.id, e.group, e.features)).toDF("id", "group", "features")
  }

  test("collectElements roundtrips ids, groups, and features in order") {
    val xs = TestGen.randomElements(50, 3, 4, 1)
    val back = SparkFDM.collectElements(toDF(xs).coalesce(1))
    assert(back.map(_.id) == xs.map(_.id))
    assert(back.map(_.group) == xs.map(_.group))
    assert(back.zip(xs).forall { case (a, b) => a.features.sameElements(b.features) })
  }
}
