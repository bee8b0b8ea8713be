package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}
import repro.core.{Diversity, Element, Euclidean}

/** FairSwap (offline, m=2): fairness and the 1/4-approximation guarantee. */
class FairSwapSpec extends AnyFunSuite {

  for (seed <- 1 to 12) {
    test(s"fairness: exactly (k1, k2) per group (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val (k1, k2) = (1 + rng.nextInt(3), 1 + rng.nextInt(3))
      val xs = TestGen.randomElements(25, 2, 2, seed * 19L, minPerGroup = math.max(k1, k2))
      val sol = FairSwap.run(xs, k1, k2, Euclidean)
      assert(sol.count(_.group == 0) == k1 && sol.count(_.group == 1) == k2)
      assert(sol.map(_.id).distinct.size == k1 + k2)
    }
  }

  for (seed <- 1 to 10) {
    test(s"1/4-approximation vs brute-force OPT_f (seed $seed)") {
      val rng = new scala.util.Random(seed + 100)
      val (k1, k2) = (1 + rng.nextInt(2), 1 + rng.nextInt(2))
      val xs = TestGen.randomElements(12, 2, 2, seed * 23L, minPerGroup = 3)
      val optF = Oracle.bruteForceFairOpt(xs, IndexedSeq(k1, k2), Euclidean)
      val sol = FairSwap.run(xs, k1, k2, Euclidean)
      assert(Diversity.div(sol, Euclidean) >= optF / 4 - 1e-9)
    }
  }

  test("balanced GMM output needs no swaps and is returned untouched") {
    // Alternating far-apart points: GMM's k picks are naturally balanced.
    val xs = (0 until 10).map(i => Element(i.toLong, i % 2, Array(i * 100.0)))
    val sol = FairSwap.run(xs, 2, 2, Euclidean)
    assert(sol.count(_.group == 0) == 2 && sol.count(_.group == 1) == 2)
  }

  test("extreme skew: rare group fully represented") {
    val rng = new scala.util.Random(5)
    val xs = (0 until 50).map(i => Element(i.toLong, if (i < 3) 1 else 0, Array(rng.nextDouble() * 10)))
    val sol = FairSwap.run(xs, 2, 3, Euclidean)
    assert(sol.count(_.group == 1) == 3 && sol.count(_.group == 0) == 2)
  }

  test("rejects infeasible quotas and bad groups") {
    val xs = IndexedSeq(Element(0, 0, Array(0.0)), Element(1, 1, Array(1.0)))
    intercept[IllegalArgumentException](FairSwap.run(xs, 2, 1, Euclidean))
    val bad = IndexedSeq(Element(0, 0, Array(0.0)), Element(1, 2, Array(1.0)))
    intercept[IllegalArgumentException](FairSwap.run(bad, 1, 1, Euclidean))
  }
}
