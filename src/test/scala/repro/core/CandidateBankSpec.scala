package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen

/** Input validation at ingestion: [[CandidateBank.process]] checks each
  * arrival once, and [[CandidateBank.finish]] rejects an empty stream, for
  * all three streaming algorithms.
  */
class CandidateBankSpec extends AnyFunSuite {

  private val xs = TestGen.randomElements(40, 2, 3, 2024L, minPerGroup = 5)
  private val bounds = DistanceBounds.exact(xs, Euclidean)
  private def banks: Seq[CandidateBank] = Seq(
    new StreamingDM(4, 0.1, bounds, Euclidean),
    new SFDM1(2, 2, 0.1, bounds, Euclidean),
    new SFDM2(IndexedSeq(2, 2), 0.1, bounds, Euclidean),
  )

  /** `bad` is rejected after a valid prefix, naming its id, and leaves the
    * state as it was and able to take the rest of the stream.
    */
  private def rejects(bad: Element): Unit = banks.foreach { st =>
    st.processAll(xs.take(10))
    val stored = st.contents.map(_.id)
    val e = intercept[IllegalArgumentException](st.process(bad))
    assert(e.getMessage.contains(s"element ${bad.id}"), e.getMessage)
    assert(st.contents.map(_.id) == stored)
    st.processAll(xs.drop(10))
    assert(st.finish().solution.nonEmpty)
  }

  test("an arrival with more features than the first arrival is rejected") {
    rejects(Element(100, 0, Array(0.1, 0.2, 0.3, 0.4)))
  }

  test("an arrival with fewer features than the first arrival is rejected") {
    rejects(Element(101, 1, Array(0.5, 0.5)))
  }

  test("an arrival with a NaN feature is rejected") {
    rejects(Element(102, 0, Array(0.1, Double.NaN, 0.3)))
  }

  test("an arrival with an infinite feature is rejected") {
    rejects(Element(103, 1, Array(0.2, 0.4, Double.NegativeInfinity)))
  }

  test("finite features whose squares overflow are accepted") {
    banks.foreach { st =>
      st.process(Element(104, 0, Array(1e200, 0.0, 0.0)))
      st.processAll(xs)
      assert(st.contents.exists(_.id == 104))
    }
  }

  test("finish() on an empty stream is rejected, also after a rejected arrival") {
    banks.foreach { st =>
      val e = intercept[IllegalStateException](st.finish())
      assert(e.getMessage.contains("stream was empty"), e.getMessage)
      intercept[IllegalArgumentException](st.process(Element(105, 0, Array(Double.NaN, 0.0, 0.0))))
      intercept[IllegalStateException](st.finish())
    }
  }
}
