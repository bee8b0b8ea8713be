package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}
import repro.baseline.FairSwap

/** Exact solution ids on fixed instances. The guarantee suites check the
  * approximation bounds, which many different solutions satisfy; this one
  * pins *which* elements are selected, so a refactor of the stream phase or
  * the post-processing that changes a single admission or tie-break fails
  * here.
  */
class SolutionIdsSpec extends AnyFunSuite {

  private val xs2 = TestGen.randomElements(150, 2, 2, 4242L, minPerGroup = 20)
  private val xs3 = TestGen.clusteredElements(180, 3, 3, 9, 777L, minPerGroup = 20)

  private def ids(st: FdmState, xs: IndexedSeq[Element]): Seq[Long] = {
    st.processAll(xs)
    st.finish().solution.map(_.id).sorted
  }

  private def bounds(kind: String, xs: IndexedSeq[Element]): DistanceBounds =
    if (kind == "exact") Oracle.exactBounds(xs, Euclidean) else DistanceBounds.estimate(xs, Euclidean)

  private val expected: Map[String, Seq[Long]] = Map(
    "StreamingDM/exact" -> Seq(0, 1, 5, 7, 9, 20, 136),
    "SFDM1/exact" -> Seq(0, 1, 3, 5, 6, 7, 9),
    "SFDM2/exact" -> Seq(0, 3, 14, 15, 17, 18, 134),
    "StreamingDM/estimate" -> Seq(0, 1, 3, 5, 6, 7, 16),
    "SFDM1/estimate" -> Seq(0, 1, 3, 5, 6, 7, 16),
    "SFDM2/estimate" -> Seq(0, 3, 8, 14, 15, 17, 18),
    "FairSwap" -> Seq(0, 23, 59, 61, 87, 106, 141),
  )

  test("StreamingDM, SFDM1, SFDM2 and FairSwap select the pinned ids on fixed instances") {
    val got = Seq.newBuilder[(String, Seq[Long])]
    for (kind <- Seq("exact", "estimate")) {
      got += s"StreamingDM/$kind" -> ids(new StreamingDM(7, 0.1, bounds(kind, xs2), Euclidean), xs2)
      got += s"SFDM1/$kind" -> ids(new SFDM1(2, 5, 0.1, bounds(kind, xs2), Euclidean), xs2)
      got += s"SFDM2/$kind" -> ids(new SFDM2(IndexedSeq(1, 2, 4), 0.1, bounds(kind, xs3), Euclidean), xs3)
    }
    got += "FairSwap" -> FairSwap.run(xs2, 2, 5, Euclidean).map(_.id).sorted
    val wrong = got.result().filterNot { case (name, actual) => expected.get(name).contains(actual) }
    assert(wrong.isEmpty, wrong.map { case (name, a) => s""""$name" -> Seq(${a.mkString(", ")}),""" }.mkString("\n", "\n", ""))
  }

  private val nonEuclidean: Map[String, Seq[Long]] = Map(
    "StreamingDM/Angular" -> Seq(0, 1, 6, 8, 14, 15, 135),
    "SFDM2/Angular" -> Seq(0, 1, 8, 14, 15, 33, 135),
    "SFDM1/Manhattan" -> Seq(0, 1, 3, 5, 6, 7, 9),
  )

  test("StreamingDM and SFDM2 under Angular and SFDM1 under Manhattan select the pinned ids") {
    val angular = DistanceBounds.estimate(xs3, Angular)
    val got = Seq(
      "StreamingDM/Angular" -> ids(new StreamingDM(7, 0.1, angular, Angular), xs3),
      "SFDM2/Angular" -> ids(new SFDM2(IndexedSeq(1, 2, 4), 0.1, angular, Angular), xs3),
      "SFDM1/Manhattan" -> ids(new SFDM1(2, 5, 0.1, DistanceBounds.estimate(xs2, Manhattan), Manhattan), xs2),
    )
    val wrong = got.filterNot { case (name, actual) => nonEuclidean.get(name).contains(actual) }
    assert(wrong.isEmpty, wrong.map { case (name, a) => s""""$name" -> Seq(${a.mkString(", ")}),""" }.mkString("\n", "\n", ""))
  }

  // Same-group topic vectors share boosted topics, so this instance has
  // cosines on both sides of 0.5 (asserted below), and Angular's acos runs
  // in both of its fdlibm ranges.
  private val lyrics = TestGen.lyricsLikeElements(200, 3, 50, 2022L)

  private val lyricsIds: Map[String, Seq[Long]] = Map(
    "StreamingDM/lyrics" -> Seq(0, 2, 3, 12, 20, 31, 61),
    "SFDM2/lyrics" -> Seq(0, 2, 3, 12, 20, 83, 147),
  )

  test("StreamingDM and SFDM2 under Angular select the pinned ids on lyrics-shaped topic vectors") {
    val cosines = for (a <- lyrics; b <- lyrics if a.id < b.id)
      yield Element.dot(a.features, b.features) / math.sqrt(a.sqNorm * b.sqNorm)
    assert(cosines.exists(_ > 0.5) && cosines.exists(_ < 0.5))
    val b = DistanceBounds.estimate(lyrics, Angular)
    val got = Seq(
      "StreamingDM/lyrics" -> ids(new StreamingDM(7, 0.1, b, Angular), lyrics),
      "SFDM2/lyrics" -> ids(new SFDM2(IndexedSeq(1, 2, 4), 0.1, b, Angular), lyrics),
    )
    val wrong = got.filterNot { case (name, actual) => lyricsIds.get(name).contains(actual) }
    assert(wrong.isEmpty, wrong.map { case (name, a) => s""""$name" -> Seq(${a.mkString(", ")}),""" }.mkString("\n", "\n", ""))
  }
}
