package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}

/** Algorithm 2 — SFDM1: fairness, the Theorem 2 ((1-ε)/4) guarantee, and
  * structural invariants of the swap-based post-processing.
  */
class SFDM1Spec extends AnyFunSuite {

  private def runOn(xs: IndexedSeq[Element], k1: Int, k2: Int, eps: Double): FdmResult = {
    val st = new SFDM1(k1, k2, eps, Oracle.exactBounds(xs, Euclidean), Euclidean)
    st.processAll(xs)
    st.finish()
  }

  for (seed <- 1 to 15) {
    test(s"fairness: solution has exactly k_i per group (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val (k1, k2) = (1 + rng.nextInt(3), 1 + rng.nextInt(3))
      val xs = TestGen.randomElements(20 + rng.nextInt(10), 2, 2, seed * 31L, minPerGroup = math.max(k1, k2))
      val res = runOn(xs, k1, k2, 0.1)
      assert(res.groupCounts.getOrElse(0, 0) == k1, s"group 0: ${res.groupCounts}")
      assert(res.groupCounts.getOrElse(1, 0) == k2, s"group 1: ${res.groupCounts}")
      assert(res.solution.map(_.id).distinct.size == k1 + k2, "no duplicates")
    }
  }

  for (seed <- 1 to 15) {
    test(s"Theorem 2: div ≥ (1-ε)/4 · OPT_f (seed $seed)") {
      val rng = new scala.util.Random(seed + 500)
      val (k1, k2) = (1 + rng.nextInt(2), 1 + rng.nextInt(2))
      val eps = 0.1
      val xs = TestGen.randomElements(12 + rng.nextInt(4), 2, 2, seed * 97L, minPerGroup = math.max(k1, k2) + 1)
      val optF = Oracle.bruteForceFairOpt(xs, IndexedSeq(k1, k2), Euclidean)
      assert(optF > 0)
      val res = runOn(xs, k1, k2, eps)
      assert(res.diversity >= (1 - eps) / 4 * optF - 1e-9,
        s"got ${res.diversity}, need ≥ ${(1 - eps) / 4 * optF}")
    }
  }

  for (seed <- 1 to 5) {
    test(s"Theorem 2 on clustered data (seed $seed)") {
      val eps = 0.1
      val xs = TestGen.clusteredElements(16, 2, 2, 6, seed * 13L, minPerGroup = 3)
      val optF = Oracle.bruteForceFairOpt(xs, IndexedSeq(2, 2), Euclidean)
      val res = runOn(xs, 2, 2, eps)
      assert(res.diversity >= (1 - eps) / 4 * optF - 1e-9)
    }
  }

  for (seed <- 1 to 5) {
    test(s"skewed groups: 90/10 split still yields a fair solution (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val xs = (0 until 60).map { i =>
        Element(i.toLong, if (i % 10 == 0) 1 else 0, Array.fill(2)(rng.nextDouble() * 5))
      }
      val res = runOn(xs, 3, 3, 0.1)
      assert(res.groupCounts.getOrElse(0, 0) == 3 && res.groupCounts.getOrElse(1, 0) == 3)
    }
  }

  test("guarantee holds across stream permutations") {
    val xs = TestGen.randomElements(14, 2, 2, 1234, minPerGroup = 3)
    val optF = Oracle.bruteForceFairOpt(xs, IndexedSeq(2, 2), Euclidean)
    for (s <- 1 to 8) {
      val perm = new scala.util.Random(s).shuffle(xs)
      val res = runOn(perm, 2, 2, 0.1)
      assert(res.diversity >= 0.9 / 4 * optF - 1e-9, s"permutation $s broke the guarantee")
    }
  }

  test("already-fair blind candidates skip balancing unchanged (diversity ≥ µ case)") {
    // Alternating groups on a line: the blind candidate is naturally balanced.
    val xs = (0 until 20).map(i => Element(i.toLong, i % 2, Array(i.toDouble)))
    val res = runOn(xs, 2, 2, 0.1)
    assert(res.groupCounts.values.toSeq.sorted == Seq(2, 2))
    assert(res.diversity > 0)
  }

  test("memory: stored elements ≤ (k + k1 + k2) · |U| and < n at scale") {
    val xs = TestGen.randomElements(500, 2, 2, 8, minPerGroup = 10)
    val st = new SFDM1(3, 3, 0.1, Oracle.exactBounds(xs, Euclidean), Euclidean)
    st.processAll(xs)
    val res = st.finish()
    assert(res.storedElements <= (6 + 3 + 3) * st.guesses.length)
    assert(res.storedElements < xs.length)
  }

  test("rejects invalid quotas and out-of-range groups") {
    intercept[IllegalArgumentException](new SFDM1(0, 2, 0.1, DistanceBounds(1, 2), Euclidean))
    val st = new SFDM1(1, 1, 0.1, DistanceBounds(1, 2), Euclidean)
    intercept[IllegalArgumentException](st.process(Element(0, 2, Array(0.0))))
  }

  test("quota asymmetry: k1 ≠ k2 respected") {
    val xs = TestGen.randomElements(30, 2, 2, 21, minPerGroup = 6)
    val res = runOn(xs, 5, 1, 0.1)
    assert(res.groupCounts.getOrElse(0, 0) == 5 && res.groupCounts.getOrElse(1, 0) == 1)
  }

  test("an id that arrives again with other features is balanced as an element of its own (quotas (3, 1), Manhattan lattice)") {
    // At every eligible guess the blind candidate is a, d, e, b: two of group
    // 0's quota of 3. Group 0's candidate is a, b, b', and b' repeats b's id.
    // Balancing by id left no element for the pool, which threw empty.maxBy;
    // by slot it inserts b', then drops d, the nearer of d and e to group 0
    // (a tie at 1, broken by the smaller id).
    val xs = IndexedSeq(
      Element(0, 0, Array(0.0, 0.0)), // a
      Element(3, 1, Array(1.0, 1.0)), // d
      Element(4, 1, Array(1.0, 0.0)), // e
      Element(1, 0, Array(0.0, 1.0)), // b
      Element(1, 0, Array(0.5, 1.5)), // b'
    )
    val st = new SFDM1(3, 1, 0.1, DistanceBounds(0.5, 2.5), Manhattan)
    st.processAll(xs)
    val res = st.finish()
    assert(res.fair && res.groupCounts == Map(0 -> 3, 1 -> 1), s"${res.groupCounts}")
    assert(res.solution.map(_.id) == Vector(0L, 4L, 1L, 1L) && res.diversity == 1.0, s"${res.solution}, ${res.diversity}")
    assert(res.solution(2) ne res.solution(3))
    assert(res.storedElements == 5)
  }

  test("an element sent twice in a row, whose distance to itself is NaN, is stored once per candidate (SFDM1 (2, 1), Angular)") {
    // The second arrival keeps the first one's memo slot, and the NaN passes
    // every µ test; a candidate that stored the slot again made a "fair"
    // answer holding the element twice.
    val big = Element(0, 0, Array(1e200, 1e200))
    val xs = IndexedSeq(big, big, Element(1, 1, Array(1.0, 0.0)), Element(2, 1, Array(0.0, 1.0)), Element(3, 1, Array(-1.0, 0.2)))
    val st = new SFDM1(2, 1, 0.1, DistanceBounds(0.1, 3.0), Angular)
    st.processAll(xs)
    for (p <- st.blind +: st.groups.toSeq; j <- st.guesses.indices)
      assert(p.slots(j).distinct.length == p.size(j), s"guess $j holds ${p.slots(j).toSeq}")
    val res = st.finish()
    // Ids are unique here, so distinct ids are distinct slots.
    assert(res.solution.map(_.id).distinct.size == res.solution.size, s"${res.solution}")
  }
}
