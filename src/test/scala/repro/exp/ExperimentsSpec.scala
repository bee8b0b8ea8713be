package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.core.Euclidean

/** Quota computation and the shared Table II cell harness. */
class ExperimentsSpec extends AnyFunSuite {

  for (k <- Seq(6, 10, 20, 21, 50); m <- Seq(2, 3, 5)) {
    test(s"quotasEqual(k=$k, m=$m): sums to k, balanced within 1, all ≥ 1") {
      val ks = Experiments.quotasEqual(k, m)
      assert(ks.sum == k && ks.length == m)
      assert(ks.max - ks.min <= 1)
      assert(ks.forall(_ >= 1))
    }
  }

  test("quotasEqual(20, 14) mirrors the paper's Census sex+age setting") {
    val ks = Experiments.quotasEqual(20, 14)
    assert(ks.sum == 20 && ks.count(_ == 2) == 6 && ks.count(_ == 1) == 8)
  }

  test("quotasEqual rejects k < m") {
    intercept[IllegalArgumentException](Experiments.quotasEqual(3, 5))
  }

  test("runCell produces all expected measures for m=2") {
    val xs = TestGen.randomElements(150, 2, 2, 9, minPerGroup = 20)
    val measures = Experiments.runCell(xs, IndexedSeq(3, 3), Euclidean, eps = 0.1,
      streamSeeds = Seq(1L), offlineSeeds = Seq(1L))
    val names = measures.map(_.algo)
    assert(names == Seq("GMM", "FairSwap", "FairFlow", "SFDM1", "SFDM2"))
    measures.foreach(mm => assert(mm.diversity > 0 && mm.timeSec >= 0))
    // Streaming algorithms report element counts; offline ones do not.
    assert(measures.filter(mm => mm.algo.startsWith("SFDM")).forall(_.elems.isDefined))
    assert(measures.filterNot(mm => mm.algo.startsWith("SFDM")).forall(_.elems.isEmpty))
  }

  test("runCell reports the fraction of fair runs for the streaming algorithms only") {
    val xs = TestGen.randomElements(150, 2, 2, 9, minPerGroup = 20)
    val measures = Experiments.runCell(xs, IndexedSeq(3, 3), Euclidean, eps = 0.1,
      streamSeeds = Seq(1L, 2L), offlineSeeds = Seq(1L))
    measures.foreach { mm =>
      assert(mm.fairFrac == (if (mm.algo.startsWith("SFDM")) Some(1.0) else None), mm.fmt)
      assert(mm.fmt.contains("fair="))
    }
  }

  test("runCell for m=4 skips the m=2-only algorithms") {
    val xs = TestGen.randomElements(200, 4, 2, 10, minPerGroup = 20)
    val measures = Experiments.runCell(xs, IndexedSeq(2, 2, 2, 2), Euclidean, eps = 0.1,
      streamSeeds = Seq(1L), offlineSeeds = Seq(1L))
    assert(measures.map(_.algo) == Seq("GMM", "FairFlow", "SFDM2"))
  }

  test("fair diversities never exceed the unconstrained GMM-based upper bound 2·div_GMM") {
    val xs = TestGen.randomElements(150, 2, 2, 11, minPerGroup = 20)
    val measures = Experiments.runCell(xs, IndexedSeq(3, 3), Euclidean, eps = 0.1,
      streamSeeds = Seq(1L), offlineSeeds = Seq(1L))
    val gmmDiv = measures.find(_.algo == "GMM").get.diversity
    measures.filter(_.algo != "GMM").foreach(mm => assert(mm.diversity <= 2 * gmmDiv + 1e-9))
  }

  test("renderCell formats every measure") {
    val ms = Seq(Experiments.Measure("SFDM2", 1.2345, 0.01, Some(120.0)))
    val s = Experiments.renderCell("Adult", "sex", 2, ms)
    assert(s.contains("Adult") && s.contains("SFDM2") && s.contains("#elem"))
  }
}
