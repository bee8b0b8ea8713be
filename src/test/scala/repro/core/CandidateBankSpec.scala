package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}

/** Input validation at ingestion, the candidates' invariants and degenerate
  * outcomes, for all three streaming algorithms: [[CandidateBank.process]]
  * checks each arrival once, [[CandidateBank.finish]] rejects an empty stream
  * and one whose points all coincide, and a stream that no guess can serve
  * gets the fallback, reported as not fair.
  */
class CandidateBankSpec extends AnyFunSuite {

  private val xs = TestGen.randomElements(40, 2, 3, 2024L, minPerGroup = 5)
  private val bounds = Oracle.exactBounds(xs, Euclidean)
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

  test("every candidate of every part is µ-separated and within its capacity") {
    banks.foreach { st =>
      st.processAll(xs)
      for (p <- st.blind +: st.groups; j <- st.guesses.indices) {
        val es = p.slots(j).map(st.memo.element)
        assert(es.length <= p.cap, s"guess $j holds ${es.length} > ${p.cap}")
        for (a <- es.indices; b <- a + 1 until es.length)
          assert(Euclidean.dist(es(a), es(b)) >= st.guesses(j), s"guess $j: pair ($a,$b) violates µ=${st.guesses(j)}")
      }
    }
  }

  private val direct = DistanceBounds(0.1, 1.0)
  private def directBanks: Seq[CandidateBank] = Seq(
    new StreamingDM(4, 0.1, direct, Euclidean),
    new SFDM1(2, 2, 0.1, direct, Euclidean),
    new SFDM2(IndexedSeq(2, 2), 0.1, direct, Euclidean),
  )

  test("a stream whose points all coincide is rejected by finish(), with bounds not from estimate") {
    val same = IndexedSeq.tabulate(6)(i => Element(i.toLong, i % 2, Array(0.3, 0.3, 0.3)))
    directBanks.foreach { st =>
      st.processAll(same)
      val e = intercept[IllegalArgumentException](st.finish())
      assert(e.getMessage.contains("all points coincide"), e.getMessage)
    }
  }

  test("one arrival, or points closer than every guess that do not coincide, fall back instead") {
    val close = IndexedSeq.tabulate(6)(i => Element(i.toLong, i % 2, Array(0.3, 0.3, 0.3 + 0.001 * i)))
    for (stream <- Seq(close.take(1), close); st <- directBanks) {
      st.processAll(stream)
      assert(!st.finish().fair)
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

  // Group 1 cut down to its first two arrivals, below a quota of 4: no guess
  // is eligible, so SFDM1 and SFDM2 fall back.
  private val group1Short = {
    val keep = xs.filter(_.group == 1).take(2).map(_.id).toSet
    xs.filter(e => e.group == 0 || keep(e.id))
  }

  /** Runs `st` on `stream` and checks the solution's ids, in solution order,
    * and its diversity.
    */
  private def pinned(st: FdmState, stream: IndexedSeq[Element], ids: Seq[Long], div: Double): FdmResult = {
    st.processAll(stream)
    val r = st.finish()
    assert(r.solution.map(_.id) == ids && r.diversity == div, s"ids ${r.solution.map(_.id).mkString(", ")}, diversity ${r.diversity}")
    r
  }

  test("StreamingDM on a stream shorter than k falls back to its first largest candidate") {
    assert(!pinned(new StreamingDM(7, 0.1, bounds, Euclidean), xs.take(5), Seq(0, 1, 2, 3, 4), 0.27345731230739256).fair)
  }

  test("SFDM1 with a group smaller than its quota falls back to the guess covering most quotas") {
    assert(!pinned(new SFDM1(2, 4, 0.1, bounds, Euclidean), group1Short, Seq(2, 3, 0, 1), 0.2953258864860237).fair)
  }

  test("SFDM2 with a group smaller than its quota falls back to the guess covering most quotas") {
    assert(!pinned(new SFDM2(IndexedSeq(2, 4), 0.1, bounds, Euclidean), group1Short, Seq(2, 3, 0, 1), 0.2953258864860237).fair)
  }

  test("streamNanos runs from the first arrival to finish(), not from construction") {
    val hundred = TestGen.randomElements(100, 2, 3, 77L, minPerGroup = 10)
    val b = Oracle.exactBounds(hundred, Euclidean)
    Seq(
      () => new StreamingDM(4, 0.1, b, Euclidean),
      () => new SFDM1(2, 2, 0.1, b, Euclidean),
      () => new SFDM2(IndexedSeq(2, 2), 0.1, b, Euclidean),
    ).foreach { make =>
      val st = make()
      Thread.sleep(200)
      st.processAll(hundred)
      val r = st.finish()
      assert(r.streamNanos > 0 && r.streamNanos < 200000000L, s"streamNanos ${r.streamNanos}")
      assert(r.postNanos > 0)
    }
  }

  test("an ordinary run of each algorithm is fair: |S| = k and every quota met") {
    banks.zip(Seq(Map.empty[Int, Int], Map(0 -> 2, 1 -> 2), Map(0 -> 2, 1 -> 2))).foreach { case (st, quotas) =>
      st.processAll(xs)
      val r = st.finish()
      assert(r.fair && r.solution.size == st.k)
      quotas.foreach { case (g, q) => assert(r.groupCounts.getOrElse(g, 0) == q) }
    }
  }
}
