package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}

/** The distance-evaluation counters of [[FdmResult]]. The stream phase
  * evaluates each (arrival, stored element) pair at most once, and
  * post-processing each pair of stored elements at most once.
  */
class EvalCountSpec extends AnyFunSuite {

  private val xs2 = TestGen.randomElements(150, 2, 2, 4242L, minPerGroup = 20)
  private val xs3 = TestGen.clusteredElements(180, 3, 3, 9, 777L, minPerGroup = 20)

  private def checkCounts(st: FdmState, xs: IndexedSeq[Element]): Unit = {
    var pairs = 0L // Σ_t stored elements before arrival t
    xs.foreach { x => pairs += st.storedElementCount; st.process(x) }
    val r = st.finish()
    val s = r.storedElements.toLong
    assert(r.streamEvals > 0 && r.streamEvals <= pairs, s"streamEvals ${r.streamEvals}, bound $pairs")
    assert(r.postEvals > 0 && r.postEvals <= s * (s - 1) / 2, s"postEvals ${r.postEvals}, $s stored elements")
  }

  test("StreamingDM: evaluations are bounded by the distinct pairs of each phase") {
    checkCounts(new StreamingDM(7, 0.1, Oracle.exactBounds(xs2, Euclidean), Euclidean), xs2)
  }

  test("SFDM1: evaluations are bounded by the distinct pairs of each phase") {
    checkCounts(new SFDM1(2, 5, 0.1, Oracle.exactBounds(xs2, Euclidean), Euclidean), xs2)
  }

  test("SFDM2: evaluations are bounded by the distinct pairs of each phase") {
    checkCounts(new SFDM2(IndexedSeq(1, 2, 4), 0.1, Oracle.exactBounds(xs3, Euclidean), Euclidean), xs3)
  }

  test("SFDM2 under Angular: evaluations are bounded by the distinct pairs of each phase") {
    checkCounts(new SFDM2(IndexedSeq(1, 2, 4), 0.1, Oracle.exactBounds(xs3, Angular), Angular), xs3)
  }
}
