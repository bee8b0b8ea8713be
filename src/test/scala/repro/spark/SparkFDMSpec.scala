package repro.spark

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGen}
import repro.core._

/** Spark dataflow layer: conversions, and sequential execution against a
  * local one-pass run.
  */
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

  test("runSequential(SFDM1) over a single-partition DataFrame equals a local one-pass run") {
    val xs = TestGen.randomElements(120, 2, 2, 3, minPerGroup = 10)
    val bounds = DistanceBounds.exact(xs, Euclidean)
    val viaSpark = SparkFDM.runSequential(toDF(xs).coalesce(1), new SFDM1(3, 3, 0.1, bounds, Euclidean))
    val local = { val st = new SFDM1(3, 3, 0.1, bounds, Euclidean); st.processAll(xs); st.finish() }
    assert(viaSpark.solution.map(_.id).sorted == local.solution.map(_.id).sorted)
    assert(math.abs(viaSpark.diversity - local.diversity) < 1e-12)
  }

  test("runSequential(SFDM2) produces a fair solution from a multi-partition DataFrame") {
    val xs = TestGen.randomElements(200, 3, 2, 4, minPerGroup = 10)
    val bounds = DistanceBounds.exact(xs, Euclidean)
    val res = SparkFDM.runSequential(toDF(xs).repartition(8), new SFDM2(IndexedSeq(2, 2, 2), 0.1, bounds, Euclidean))
    assert(res.groupCounts == Map(0 -> 2, 1 -> 2, 2 -> 2))
  }
}
