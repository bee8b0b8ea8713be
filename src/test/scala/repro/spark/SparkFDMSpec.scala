package repro.spark

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGen}
import repro.core._

/** Spark dataflow layer: conversions, and sequential vs distributed
  * execution.
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

  test("runDistributed(SFDM2): per-partition coresets merge into a fair solution of comparable quality") {
    val xs = TestGen.clusteredElements(400, 2, 2, 8, 5, minPerGroup = 50)
    val bounds = DistanceBounds.exact(xs, Euclidean)
    val ks = IndexedSeq(3, 3)
    val mk = () => new SFDM2(ks, 0.1, bounds, Euclidean)
    val dist = SparkFDM.runDistributed(toDF(xs).repartition(8), mk, mk())
    val seqR = { val st = mk(); st.processAll(xs); st.finish() }
    assert(dist.groupCounts == Map(0 -> 3, 1 -> 3))
    assert(dist.diversity >= 0.4 * seqR.diversity,
      s"distributed ${dist.diversity} collapsed vs sequential ${seqR.diversity}")
  }

  test("runDistributed(SFDM1) is fair on skewed groups") {
    val rng = new scala.util.Random(9)
    val xs = (0 until 300).map(i => Element(i.toLong, if (i % 7 == 0) 1 else 0, Array(rng.nextDouble() * 10, rng.nextDouble() * 10)))
    val bounds = DistanceBounds.exact(xs, Euclidean)
    val mk = () => new SFDM1(3, 3, 0.1, bounds, Euclidean)
    val res = SparkFDM.runDistributed(toDF(xs).repartition(6), mk, mk())
    assert(res.groupCounts == Map(0 -> 3, 1 -> 3))
  }
}
