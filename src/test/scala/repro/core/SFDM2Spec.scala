package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGen}

/** Algorithm 3 — SFDM2: fairness for arbitrary m, the Theorem 4
  * ((1-ε)/(3m+2)) guarantee, and the Lemma 3 cluster properties.
  */
class SFDM2Spec extends AnyFunSuite {

  private def runOn(xs: IndexedSeq[Element], ks: IndexedSeq[Int], eps: Double): FdmResult = {
    val st = new SFDM2(ks, eps, Oracle.exactBounds(xs, Euclidean), Euclidean)
    st.processAll(xs)
    st.finish()
  }

  for (m <- 2 to 5; seed <- 1 to 4) {
    test(s"fairness: exactly k_i per group for m=$m (seed $seed)") {
      val ks = IndexedSeq.fill(m)(1 + (seed % 2))
      val xs = TestGen.randomElements(15 * m, m, 2, seed * 101L + m, minPerGroup = ks.max + 1)
      val res = runOn(xs, ks, 0.1)
      (0 until m).foreach(i => assert(res.groupCounts.getOrElse(i, 0) == ks(i),
        s"group $i: ${res.groupCounts} vs quotas $ks"))
      assert(res.solution.map(_.id).distinct.size == ks.sum)
    }
  }

  for (seed <- 1 to 10) {
    test(s"Theorem 4 (m=2): div ≥ (1-ε)/8 · OPT_f (seed $seed)") {
      val eps = 0.1
      val ks = IndexedSeq(2, 2)
      val xs = TestGen.randomElements(13, 2, 2, seed * 211L, minPerGroup = 3)
      val optF = Oracle.bruteForceFairOpt(xs, ks, Euclidean)
      val res = runOn(xs, ks, eps)
      val bound = (1 - eps) / (3 * 2 + 2) * optF
      assert(res.diversity >= bound - 1e-9, s"got ${res.diversity}, need ≥ $bound")
    }
  }

  for (seed <- 1 to 6) {
    test(s"Theorem 4 (m=3): div ≥ (1-ε)/11 · OPT_f (seed $seed)") {
      val eps = 0.1
      val ks = IndexedSeq(1, 1, 2)
      val xs = TestGen.randomElements(12, 3, 2, seed * 307L, minPerGroup = 3)
      val optF = Oracle.bruteForceFairOpt(xs, ks, Euclidean)
      val res = runOn(xs, ks, eps)
      val bound = (1 - eps) / (3 * 3 + 2) * optF
      assert(res.diversity >= bound - 1e-9)
    }
  }

  for (seed <- 1 to 4) {
    test(s"Theorem 4 on clustered data, m=2 (seed $seed)") {
      val eps = 0.1
      val ks = IndexedSeq(2, 2)
      val xs = TestGen.clusteredElements(16, 2, 2, 6, seed * 17L, minPerGroup = 4)
      val optF = Oracle.bruteForceFairOpt(xs, ks, Euclidean)
      val res = runOn(xs, ks, eps)
      assert(res.diversity >= (1 - eps) / 8 * optF - 1e-9)
    }
  }

  test("Lemma 3(i): clusters are µ/(m+1)-separated") {
    val xs = TestGen.randomElements(40, 3, 2, 71, minPerGroup = 5)
    val st = new SFDM2(IndexedSeq(2, 2, 2), 0.1, Oracle.exactBounds(xs, Euclidean), Euclidean)
    st.processAll(xs)
    val mu = st.guesses(st.guesses.length / 2)
    val sAll = st.contents // in slot order: position i holds slot i
    val cluster = SFDM2.clusterIds(sAll.length, mu / 4, new PairTable(st.memo).at)
    val cid = sAll.indices.map(i => sAll(i).id -> cluster(i)).toMap
    val thr = mu / 4 // m + 1 = 4
    for (i <- sAll.indices; j <- i + 1 until sAll.length
         if cid(sAll(i).id) != cid(sAll(j).id))
      assert(Euclidean.dist(sAll(i), sAll(j)) >= thr - 1e-12,
        s"cross-cluster pair closer than µ/(m+1)")
  }

  test("Lemma 3 single-linkage: within a cluster every element has a neighbor within threshold") {
    val xs = TestGen.clusteredElements(30, 2, 2, 4, 23, minPerGroup = 5)
    val st = new SFDM2(IndexedSeq(2, 2), 0.1, Oracle.exactBounds(xs, Euclidean), Euclidean)
    st.processAll(xs)
    val mu = st.guesses(st.guesses.length / 3)
    val sAll = st.contents // in slot order: position i holds slot i
    val cluster = SFDM2.clusterIds(sAll.length, mu / 3, new PairTable(st.memo).at)
    val cid = sAll.indices.map(i => sAll(i).id -> cluster(i)).toMap
    val thr = mu / 3 // m + 1 = 3
    sAll.groupBy(e => cid(e.id)).values.filter(_.size > 1).foreach { cluster =>
      cluster.foreach { x =>
        val others = cluster.filter(_.id != x.id)
        assert(others.exists(y => Euclidean.dist(x, y) < thr),
          "single-linkage cluster member with no in-threshold neighbor")
      }
    }
  }

  test("group-specific candidates have capacity k (not k_i) — the SFDM1/SFDM2 difference") {
    // One rare group: its candidate may hold up to k elements for augmentation.
    val rng = new scala.util.Random(3)
    val xs = (0 until 80).map(i => Element(i.toLong, if (i % 8 == 0) 1 else 0, Array(rng.nextDouble() * 10, rng.nextDouble() * 10)))
    val ks = IndexedSeq(2, 2)
    val st = new SFDM2(ks, 0.1, Oracle.exactBounds(xs, Euclidean), Euclidean)
    st.processAll(xs)
    val res = st.finish()
    assert(res.groupCounts.getOrElse(0, 0) == 2 && res.groupCounts.getOrElse(1, 0) == 2)
    // The stored-element bound reflects capacity k for all m+1 candidates per guess.
    assert(res.storedElements <= (ks.sum * (ks.length + 1)) * st.guesses.length)
  }

  test("guarantee across permutations (m=3)") {
    val ks = IndexedSeq(1, 1, 1)
    val xs = TestGen.randomElements(12, 3, 2, 4321, minPerGroup = 2)
    val optF = Oracle.bruteForceFairOpt(xs, ks, Euclidean)
    for (s <- 1 to 6) {
      val perm = new scala.util.Random(s).shuffle(xs)
      val res = runOn(perm, ks, 0.1)
      assert(res.diversity >= 0.9 / 11 * optF - 1e-9, s"permutation $s broke the guarantee")
    }
  }

  test("m=1 degenerates to unconstrained DM with a single quota") {
    val xs = TestGen.randomElements(20, 1, 2, 9)
    val res = runOn(xs, IndexedSeq(4), 0.1)
    assert(res.solution.size == 4 && res.solution.forall(_.group == 0))
  }

  test("rejects invalid quotas and out-of-range groups") {
    intercept[IllegalArgumentException](new SFDM2(IndexedSeq.empty, 0.1, DistanceBounds(1, 2), Euclidean))
    intercept[IllegalArgumentException](new SFDM2(IndexedSeq(1, 0), 0.1, DistanceBounds(1, 2), Euclidean))
    val st = new SFDM2(IndexedSeq(1, 1), 0.1, DistanceBounds(1, 2), Euclidean)
    intercept[IllegalArgumentException](st.process(Element(0, 5, Array(0.0))))
  }

  test("SFDM2 diversity ≥ SFDM1-level quality on the same m=2 instance (paper: consistently better)") {
    // Not a theorem — a regression guard for the greedy augmentation: SFDM2
    // must stay within a small factor of SFDM1 on every instance and
    // comparable on average. (The paper's "consistently better" claim is at
    // real-data scale, k=20 — reproduced in bench/TableIIBench, not here.)
    var ratios = List.empty[Double]
    for (seed <- 1 to 10) {
      val xs = TestGen.randomElements(40, 2, 2, seed * 53L, minPerGroup = 6)
      val b = Oracle.exactBounds(xs, Euclidean)
      val s1 = new SFDM1(3, 3, 0.1, b, Euclidean); s1.processAll(xs)
      val s2 = new SFDM2(IndexedSeq(3, 3), 0.1, b, Euclidean); s2.processAll(xs)
      val (d1, d2) = (s1.finish().diversity, s2.finish().diversity)
      ratios ::= d2 / d1
      assert(d2 >= 0.5 * d1, s"SFDM2 ($d2) collapsed far below SFDM1 ($d1) on seed $seed")
    }
    val avg = ratios.sum / ratios.size
    assert(avg >= 0.8, s"SFDM2 should stay comparable to SFDM1 on average, got $avg")
  }
}
