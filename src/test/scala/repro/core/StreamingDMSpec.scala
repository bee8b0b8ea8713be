package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}

/** Algorithm 1 — invariants and the Theorem 1 ((1-ε)/2) guarantee against
  * brute-force OPT on enumerable instances.
  */
class StreamingDMSpec extends AnyFunSuite {

  private def runOn(xs: IndexedSeq[Element], k: Int, eps: Double): (FdmResult, StreamingDM) = {
    val st = new StreamingDM(k, eps, Oracle.exactBounds(xs, Euclidean), Euclidean)
    st.processAll(xs)
    (st.finish(), st)
  }

  for (seed <- 1 to 15) {
    test(s"Theorem 1: div ≥ (1-ε)/2 · OPT on a random instance (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val n = 10 + rng.nextInt(5)
      val k = 3 + rng.nextInt(2)
      val eps = 0.1
      val xs = TestGen.randomElements(n, 1, 2, seed * 1000L)
      val opt = Oracle.bruteForceOpt(xs, k, Euclidean)
      val (res, _) = runOn(xs, k, eps)
      assert(res.solution.size == k)
      assert(res.diversity >= (1 - eps) / 2 * opt - 1e-9,
        s"got ${res.diversity}, need ≥ ${(1 - eps) / 2 * opt}")
    }
  }

  for (seed <- 1 to 5) {
    test(s"Theorem 1 on clustered data with tight ε (seed $seed)") {
      val xs = TestGen.clusteredElements(14, 1, 2, 5, seed * 7L)
      val k = 4
      val eps = 0.05
      val opt = Oracle.bruteForceOpt(xs, k, Euclidean)
      val (res, _) = runOn(xs, k, eps)
      assert(res.diversity >= (1 - eps) / 2 * opt - 1e-9)
    }
  }

  test("every candidate S_µ is µ-separated after the stream") {
    val xs = TestGen.randomElements(50, 1, 3, 77)
    val (_, st) = runOn(xs, 4, 0.15)
    st.guesses.indices.foreach { g =>
      val es = st.blind.slots(g).map(st.memo.element)
      for (i <- es.indices; j <- i + 1 until es.length)
        assert(Euclidean.dist(es(i), es(j)) >= st.guesses(g) - 1e-12)
    }
  }

  test("candidates are nested in size: larger µ ⇒ no more elements admitted than smallest µ") {
    val xs = TestGen.randomElements(60, 1, 2, 31)
    val (_, st) = runOn(xs, 5, 0.1)
    // Not strictly monotone pointwise, but the smallest guess always fills first.
    assert(st.blind.size(0) >= st.blind.size(st.guesses.length - 1))
  }

  test("result is invariant in quality across permutations (guarantee, not identity)") {
    val xs = TestGen.randomElements(12, 1, 2, 55)
    val k = 3
    val opt = Oracle.bruteForceOpt(xs, k, Euclidean)
    for (s <- 1 to 5) {
      val perm = new scala.util.Random(s).shuffle(xs)
      val (res, _) = runOn(perm, k, 0.1)
      assert(res.diversity >= 0.45 * opt - 1e-9)
    }
  }

  test("memory: stored elements ≤ k · |U|") {
    val xs = TestGen.randomElements(300, 1, 2, 13)
    val (res, st) = runOn(xs, 5, 0.2)
    assert(res.storedElements <= 5 * st.guesses.length)
    assert(res.storedElements < xs.length, "must store a strict subset at this scale")
  }

  test("stream/post timing is recorded") {
    val xs = TestGen.randomElements(100, 1, 2, 21)
    val (res, _) = runOn(xs, 4, 0.1)
    assert(res.streamNanos > 0 && res.postNanos > 0)
  }

  test("k below 2 is rejected") {
    intercept[IllegalArgumentException](new StreamingDM(1, 0.1, DistanceBounds(1, 2), Euclidean))
  }

  test("solution size equals k whenever some candidate filled") {
    val xs = TestGen.randomElements(40, 1, 2, 91)
    val (res, _) = runOn(xs, 6, 0.1)
    assert(res.solution.size == 6)
    assert(res.solution.map(_.id).distinct.size == 6, "no duplicate elements")
  }
}
