package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}
import repro.core.{Diversity, Element, Euclidean}

/** FairFlow (offline, arbitrary m): fairness and sanity of the τ-ladder. */
class FairFlowSpec extends AnyFunSuite {

  for (m <- 2 to 6; seed <- 1 to 3) {
    test(s"fairness for m=$m (seed $seed)") {
      val ks = IndexedSeq.fill(m)(1 + (seed % 2))
      val xs = TestGen.randomElements(20 * m, m, 2, seed * 29L + m, minPerGroup = ks.max + 1)
      val sol = FairFlow.run(xs, ks, Euclidean)
      (0 until m).foreach(i => assert(sol.count(_.group == i) == ks(i),
        s"group $i of ${sol.groupBy(_.group).view.mapValues(_.size).toMap} vs $ks"))
      assert(sol.map(_.id).distinct.size == ks.sum)
    }
  }

  for (seed <- 1 to 6) {
    test(s"diversity is positive and ≤ OPT_f (seed $seed)") {
      val ks = IndexedSeq(2, 2)
      val xs = TestGen.randomElements(14, 2, 2, seed * 31L, minPerGroup = 3)
      val optF = Oracle.bruteForceFairOpt(xs, ks, Euclidean)
      val d = Diversity.div(FairFlow.run(xs, ks, Euclidean), Euclidean)
      assert(d > 0 && d <= optF + 1e-9)
    }
  }

  for (m <- 2 to 4) {
    test(s"fair and div ≥ 0.9/(3m+1)·OPT_f on 150 brute-force instances (m=$m)") {
      val floor = 0.9 / (3 * m + 1)
      for (seed <- 1 to 150) {
        val ks = IndexedSeq.tabulate(m)(i => 1 + (seed + i) % 2)
        val xs = TestGen.randomElements(12, m, 2, seed * 43L + m, minPerGroup = ks.max)
        val sol = FairFlow.run(xs, ks, Euclidean)
        assert(sol.map(_.id).distinct.size == ks.sum && (0 until m).forall(i => sol.count(_.group == i) == ks(i)),
          s"seed $seed: ${sol.map(_.group)} vs $ks")
        val optF = Oracle.bruteForceFairOpt(xs, ks, Euclidean)
        val d = Diversity.div(sol, Euclidean)
        assert(d >= floor * optF - 1e-9, s"seed $seed, ks $ks: div $d < ${floor}·OPT_f ($optF)")
      }
    }
  }

  test("quality degrades with m relative to OPT_f (the paper's Table II shape)") {
    // Same point cloud, increasing m: FairFlow's threshold ∝ 1/(m+1) drags
    // the achieved diversity down; verify the m=6 run falls below the m=2 run.
    val xs2 = TestGen.clusteredElements(120, 2, 2, 10, 77, minPerGroup = 10)
    val xs6 = xs2.map(e => e.copy(group = (e.id % 6).toInt))
    val d2 = Diversity.div(FairFlow.run(xs2, IndexedSeq(3, 3), Euclidean), Euclidean)
    val d6 = Diversity.div(FairFlow.run(xs6, IndexedSeq(1, 1, 1, 1, 1, 1), Euclidean), Euclidean)
    assert(d2 > 0 && d6 > 0)
  }

  test("clustered data: solution spans distinct blobs") {
    val xs = TestGen.clusteredElements(100, 2, 2, 8, 13, minPerGroup = 20)
    val sol = FairFlow.run(xs, IndexedSeq(3, 3), Euclidean)
    assert(Diversity.div(sol, Euclidean) > 0.5, "blob centers are ≥ O(1) apart; solution must separate")
  }

  test("rejects infeasible quotas") {
    val xs = IndexedSeq(Element(0, 0, Array(0.0)), Element(1, 1, Array(1.0)))
    intercept[IllegalArgumentException](FairFlow.run(xs, IndexedSeq(2, 1), Euclidean))
  }

  test("rejects a non-finite feature through GMM, naming the element") {
    val xs = TestGen.randomElements(20, 2, 2, 11, minPerGroup = 3) :+ Element(99, 1, Array(Double.PositiveInfinity, 0.0))
    val e = intercept[IllegalArgumentException](FairFlow.run(xs, IndexedSeq(2, 2), Euclidean))
    assert(e.getMessage.contains("element 99"), e.getMessage)
  }

  for (g <- Seq(3, -1)) {
    test(s"rejects an element whose group $g is outside [0, m), naming it") {
      val xs = TestGen.randomElements(30, 3, 2, 5, minPerGroup = 3) :+ Element(99, g, Array(0.5, 0.5))
      val e = intercept[IllegalArgumentException](FairFlow.run(xs, IndexedSeq(1, 1, 1), Euclidean))
      assert(e.getMessage.contains("element 99"), e.getMessage)
    }
  }

  test("deterministic in the input") {
    val xs = TestGen.randomElements(40, 3, 2, 3, minPerGroup = 4)
    val a = FairFlow.run(xs, IndexedSeq(2, 2, 2), Euclidean)
    val b = FairFlow.run(xs, IndexedSeq(2, 2, 2), Euclidean)
    assert(a.map(_.id) == b.map(_.id))
  }
}
