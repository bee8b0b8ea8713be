package repro.matroid

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.core.{Element, Euclidean}

/** Algorithm 4 vs brute-force maximum common independent set, on ground
  * positions.
  */
class MatroidIntersectionSpec extends AnyFunSuite {

  /** Algorithm 4 over the positions of `xs`, under Euclidean distance. */
  private def augment(xs: IndexedSeq[Element], m1: PartitionMatroid, m2: PartitionMatroid, s0: Seq[Int]): Array[Int] =
    MatroidIntersection.augmentToMax(m1, m2, (i, j) => Euclidean.dist(xs(i), xs(j)), xs(_).id, s0)

  /** Random pair of partition matroids over the same small ground set. */
  private def instance(seed: Int): (IndexedSeq[Element], PartitionMatroid, PartitionMatroid) = {
    val rng = new scala.util.Random(seed)
    val m = 2 + rng.nextInt(3)
    val xs = TestGen.randomElements(7 + rng.nextInt(4), m, 2, seed * 13L)
    val caps1 = IndexedSeq.fill(m)(1 + rng.nextInt(2))
    val nClusters = 3 + rng.nextInt(3)
    val clusterOf = xs.map(_ => rng.nextInt(nClusters)).toArray
    val m1 = new PartitionMatroid(xs.map(_.group).toArray, caps1)
    val m2 = new PartitionMatroid(clusterOf, _ => 1)
    (xs, m1, m2)
  }

  private def bruteMaxCommon(xs: IndexedSeq[Element], m1: PartitionMatroid, m2: PartitionMatroid): Int =
    (0 to xs.length).reverse.collectFirst {
      case k if xs.indices.combinations(k).exists(c => Independence(m1, c) && Independence(m2, c)) => k
    }.getOrElse(0)

  for (seed <- 1 to 20) {
    test(s"augmentToMax from ∅ reaches the brute-force maximum cardinality (seed $seed)") {
      val (xs, m1, m2) = instance(seed)
      val brute = bruteMaxCommon(xs, m1, m2)
      // Euclidean, and the constant distance FairFlow passes.
      val results = Seq(augment(xs, m1, m2, Vector.empty), MatroidIntersection.augmentToMax(m1, m2, (_, _) => 0.0, xs(_).id, Nil))
      for (result <- results.map(_.toSeq)) {
        assert(Independence(m1, result) && Independence(m2, result), "result must be common independent")
        assert(result.map(xs(_).id).distinct.size == result.size, "no duplicates")
        assert(result.size == brute, s"got ${result.size}, brute force says $brute")
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"augmentToMax from a nonempty partial solution still reaches the maximum (seed $seed)") {
      val (xs, m1, m2) = instance(seed + 1000)
      // Greedy partial common independent set as the starting point.
      val s0 = xs.indices.foldLeft(Vector.empty[Int]) { (acc, x) =>
        if (acc.size < 2 && Independence(m1, acc :+ x) && Independence(m2, acc :+ x)) acc :+ x else acc
      }
      val result = augment(xs, m1, m2, s0).toSeq
      assert(Independence(m1, result) && Independence(m2, result))
      assert(result.size == bruteMaxCommon(xs, m1, m2))
    }
  }

  test("identical matroids: intersection is just the matroid rank") {
    val xs = TestGen.randomElements(8, 2, 2, 5, minPerGroup = 3)
    val m1 = new PartitionMatroid(xs.map(_.group).toArray, IndexedSeq(2, 2))
    val result = augment(xs, m1, m1, Vector.empty)
    assert(result.size == 4)
  }

  test("disjoint capacity zero part blocks everything") {
    val xs = TestGen.randomElements(6, 2, 2, 9, minPerGroup = 2)
    val m1 = new PartitionMatroid(xs.map(_.group).toArray, IndexedSeq(0, 0))
    val m2 = new PartitionMatroid(new Array[Int](xs.length), _ => 10)
    val result = augment(xs, m1, m2, Vector.empty)
    assert(result.isEmpty)
  }

  test("greedy phase picks farthest-first (diversity-aware augmentation)") {
    // Line of points, all in distinct clusters/groups of cap 1 each: the
    // first two picks must be the extremes (0 and 9), like GMM.
    val xs = (0 until 10).map(i => Element(i.toLong, i, Array(i.toDouble)))
    val m1 = new PartitionMatroid(xs.map(_.id.toInt).toArray, _ => 1)
    val m2 = new PartitionMatroid(xs.map(_.id.toInt).toArray, _ => 1)
    val result = augment(xs, m1, m2, Vector.empty)
    assert(result.size == 10)
    val firstTwo = result.take(2).map(xs(_).id).toSet
    assert(firstTwo.contains(9L) || firstTwo.contains(0L))
  }
}
