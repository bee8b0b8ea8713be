package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}
import repro.core.{Diversity, Element, Euclidean, Manhattan}

/** Gonzalez greedy (GMM): the 1/2-approximation guarantee and mechanics. */
class GMMSpec extends AnyFunSuite {

  for (seed <- 1 to 12) {
    test(s"1/2-approximation vs brute-force OPT (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val n = 10 + rng.nextInt(5)
      val k = 3 + rng.nextInt(2)
      val xs = TestGen.randomElements(n, 1, 2, seed * 7L)
      val opt = Oracle.bruteForceOpt(xs, k, Euclidean)
      val sol = GMM.run(xs, k, Euclidean)
      assert(sol.size == k)
      assert(Diversity.div(sol, Euclidean) >= opt / 2 - 1e-9)
    }
  }

  test("farthest-first on a line picks the extremes first") {
    val xs = (0 until 11).map(i => Element(i.toLong, 0, Array(i.toDouble)))
    val sol = GMM.run(xs, 3, Euclidean)
    // start = index 0, then farthest = 10, then farthest from {0,10} = 5.
    assert(sol.map(_.id) == Vector(0L, 10L, 5L))
  }

  test("k = n returns all elements") {
    val xs = TestGen.randomElements(6, 1, 2, 3)
    assert(GMM.run(xs, 6, Euclidean).map(_.id).toSet == xs.map(_.id).toSet)
  }

  test("k = 1 returns the start element") {
    val xs = TestGen.randomElements(5, 1, 2, 4)
    assert(GMM.run(xs, 1, Euclidean) == Vector(xs(0)))
  }

  test("deterministic for a fixed start") {
    val xs = TestGen.randomElements(30, 1, 3, 8)
    assert(GMM.run(xs, 5, Manhattan) == GMM.run(xs, 5, Manhattan))
  }

  test("no duplicate picks even with coincident points") {
    val xs = IndexedSeq(
      Element(0, 0, Array(0.0)), Element(1, 0, Array(0.0)),
      Element(2, 0, Array(1.0)), Element(3, 0, Array(1.0)))
    val sol = GMM.run(xs, 4, Euclidean)
    assert(sol.map(_.id).distinct.size == 4)
  }

  test("rejects out-of-range k") {
    val xs = TestGen.randomElements(4, 1, 2, 1)
    intercept[IllegalArgumentException](GMM.run(xs, 0, Euclidean))
    intercept[IllegalArgumentException](GMM.run(xs, 5, Euclidean))
  }

  test("rejects a non-finite feature and a feature-length mismatch, naming the element") {
    val xs = TestGen.randomElements(6, 1, 2, 5)
    for (bad <- Seq(Element(90, 0, Array(0.5, Double.NaN)), Element(91, 0, Array(0.5, 0.5, 0.5)))) {
      val e = intercept[IllegalArgumentException](GMM.run(xs :+ bad, 3, Euclidean))
      assert(e.getMessage.contains(s"element ${bad.id}"), e.getMessage)
    }
  }

  test("works with all metrics") {
    val xs = TestGen.randomElements(20, 1, 4, 10).map(e => e.copy(features = e.features.map(_ + 0.1)))
    for (metric <- Seq(Euclidean, Manhattan, repro.core.Angular)) {
      val sol = GMM.run(xs, 4, metric)
      assert(sol.size == 4 && Diversity.div(sol, metric) > 0)
    }
  }
}
