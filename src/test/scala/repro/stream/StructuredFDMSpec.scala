package repro.stream

import repro.{Oracle, SparkSpec, TestGen}
import repro.core._

/** Structured Streaming execution — the repro band's target: foreachBatch
  * statefulness across micro-batches and bit-identity with the sequential
  * one-pass run.
  */
class StructuredFDMSpec extends SparkSpec {

  test("SFDM1 via Structured Streaming ≡ sequential one-pass on the same permutation") {
    val xs = TestGen.randomElements(150, 2, 2, 1, minPerGroup = 10)
    val bounds = Oracle.exactBounds(xs, Euclidean)
    val (streamed, batches) = StructuredFDM.run(spark, xs, new SFDM1(3, 3, 0.1, bounds, Euclidean), batchSize = 40)
    val local = { val st = new SFDM1(3, 3, 0.1, bounds, Euclidean); st.processAll(xs); st.finish() }
    assert(batches >= 4, s"expected ≥4 micro-batches, got $batches")
    assert(streamed.solution.map(_.id).sorted == local.solution.map(_.id).sorted)
    assert(math.abs(streamed.diversity - local.diversity) < 1e-12)
    assert(streamed.storedElements == local.storedElements)
  }

  test("SFDM2 via Structured Streaming ≡ sequential one-pass (m = 3)") {
    val xs = TestGen.randomElements(120, 3, 2, 2, minPerGroup = 8)
    val bounds = Oracle.exactBounds(xs, Euclidean)
    val ks = IndexedSeq(2, 2, 2)
    val (streamed, _) = StructuredFDM.run(spark, xs, new SFDM2(ks, 0.1, bounds, Euclidean), batchSize = 50)
    val local = { val st = new SFDM2(ks, 0.1, bounds, Euclidean); st.processAll(xs); st.finish() }
    assert(streamed.solution.map(_.id).sorted == local.solution.map(_.id).sorted)
    assert(streamed.groupCounts == Map(0 -> 2, 1 -> 2, 2 -> 2))
  }

  test("StreamingDM via Structured Streaming keeps the Theorem 1 guarantee") {
    val xs = TestGen.randomElements(14, 1, 2, 3)
    val bounds = Oracle.exactBounds(xs, Euclidean)
    val opt = Oracle.bruteForceOpt(xs, 4, Euclidean)
    val (res, _) = StructuredFDM.run(spark, xs, new StreamingDM(4, 0.1, bounds, Euclidean), batchSize = 5)
    assert(res.diversity >= 0.9 / 2 * opt - 1e-9)
  }

  test("state persists across micro-batches (early elements survive to the end)") {
    // A far-outlying element in the very first batch must remain reachable:
    // with k=2 the solution must span the two extreme clusters.
    val far = Element(0, 0, Array(100.0, 100.0))
    val rng = new scala.util.Random(7)
    val rest = (1 until 100).map(i => Element(i.toLong, 0, Array(rng.nextDouble(), rng.nextDouble())))
    val xs = far +: rest
    val bounds = Oracle.exactBounds(xs, Euclidean)
    val (res, batches) = StructuredFDM.run(spark, xs, new StreamingDM(2, 0.1, bounds, Euclidean), batchSize = 10)
    assert(batches >= 10)
    assert(res.solution.exists(_.id == 0L), "the first-batch outlier must be in the final solution")
  }

  test("single-batch run also works (batchSize > n)") {
    val xs = TestGen.randomElements(30, 2, 2, 5, minPerGroup = 5)
    val bounds = Oracle.exactBounds(xs, Euclidean)
    val (res, batches) = StructuredFDM.run(spark, xs, new SFDM1(2, 2, 0.1, bounds, Euclidean), batchSize = 1000)
    assert(batches >= 1)
    assert(res.groupCounts == Map(0 -> 2, 1 -> 2))
  }

  test("a re-delivered micro-batch is a no-op: ids and stream counts equal a single delivery") {
    val xs = TestGen.randomElements(120, 2, 2, 9, minPerGroup = 10)
    val bounds = Oracle.exactBounds(xs, Euclidean)
    // Rows out of position order, as a micro-batch may deliver them.
    val batches = xs.zipWithIndex.map(_.swap).grouped(30).map(_.reverse.toArray).toVector
    def deliver(ids: Seq[Int]): (FdmResult, Long) = {
      val st = new SFDM1(3, 3, 0.1, bounds, Euclidean)
      val sink = new StructuredFDM.Sink(st)
      ids.foreach(b => sink.fold(b.toLong, batches(b)))
      (st.finish(), sink.batches)
    }
    val (once, n) = deliver(batches.indices)
    val (again, m) = deliver(Seq(0, 0, 1, 2, 1, 2, 3, 3, 0))
    assert(n == batches.length && m == n)
    assert(again.solution.map(_.id) == once.solution.map(_.id))
    assert(again.streamEvals == once.streamEvals && again.streamOffers == once.streamOffers)
  }
}
