package repro.matroid

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.core.Element

/** Partition-matroid axioms, asserted against [[Independence]] on sets of
  * ground positions.
  */
class MatroidSpec extends AnyFunSuite {

  private def mkMatroid(xs: IndexedSeq[Element], caps: IndexedSeq[Int]): PartitionMatroid =
    new PartitionMatroid(xs.map(_.group).toArray, caps)

  for (seed <- 1 to 8) {
    test(s"hereditary property: subsets of independent sets are independent (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val m = 2 + rng.nextInt(3)
      val caps = IndexedSeq.fill(m)(1 + rng.nextInt(2))
      val xs = TestGen.randomElements(10, m, 2, seed * 11L)
      val matroid = mkMatroid(xs, caps)
      // Build a maximal-ish independent set greedily, then check all subsets.
      val ind = xs.indices.foldLeft(Vector.empty[Int]) { (acc, x) =>
        if (Independence(matroid, acc :+ x)) acc :+ x else acc
      }
      assert(Independence(matroid, ind))
      ind.indices.foreach(i => assert(Independence(matroid, ind.patch(i, Nil, 1))))
    }
  }

  for (seed <- 1 to 8) {
    test(s"augmentation property: |A| > |B| ⇒ ∃x ∈ A∖B with B+x independent (seed $seed)") {
      val rng = new scala.util.Random(seed * 3)
      val m = 2 + rng.nextInt(2)
      val caps = IndexedSeq.fill(m)(2)
      val xs = TestGen.randomElements(12, m, 2, seed * 17L, minPerGroup = 2)
      val matroid = mkMatroid(xs, caps)
      // Random independent sets A, B with |A| > |B|.
      def randomIndependent(maxSize: Int): Vector[Int] =
        rng.shuffle(xs.indices.toVector).foldLeft(Vector.empty[Int]) { (acc, x) =>
          if (acc.size < maxSize && Independence(matroid, acc :+ x)) acc :+ x else acc
        }
      val a = randomIndependent(4)
      val b = randomIndependent(math.max(0, a.size - 1))
      if (a.size > b.size) {
        val candidates = a.filterNot(b.contains)
        assert(candidates.exists(x => Independence(matroid, b :+ x)),
          s"augmentation failed: A=${a.map(xs(_).group)}, B=${b.map(xs(_).group)}, caps=$caps")
      }
    }
  }

  test("empty set is independent") {
    val xs = TestGen.randomElements(5, 2, 2, 1)
    assert(Independence(mkMatroid(xs, IndexedSeq(1, 1)), Nil))
  }

  test("cluster matroid (caps all 1) admits at most one element per cluster") {
    val xs = TestGen.randomElements(8, 4, 2, 5)
    val clusterOf = xs.map(e => (e.id % 3).toInt).toArray
    val matroid = new PartitionMatroid(clusterOf, _ => 1)
    val byCluster = xs.indices.groupBy(clusterOf).values
    byCluster.filter(_.size >= 2).foreach { cl =>
      assert(!Independence(matroid, cl.take(2)))
      assert(Independence(matroid, cl.take(1)))
    }
  }
}
