package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestGen}

/** [[PairTable.fill]]: the pairs of several overlapping slot sets, each
  * evaluated once, on the common fork-join pool.
  */
class PairTableSpec extends AnyFunSuite with PropSupport {

  private def same(x: Double, y: Double): Boolean = java.lang.Double.compare(x, y) == 0

  for (metric <- Seq(Euclidean, Manhattan, Angular)) {
    test(s"${metric.name}: fill evaluates each within-set pair once, bit for bit, and later reads add nothing") {
      trials(40) { rng =>
        val n = 1 + rng.nextInt(120)
        val memo = new DistanceMemo(metric)
        TestGen.randomElements(n, 1, 6, rng.nextLong()).foreach { x => memo.arrive(x); memo.admit() }
        // Up to 70 sets, so the per-slot masks need a second word.
        val sets = IndexedSeq.fill(1 + rng.nextInt(70)) {
          rng.shuffle((0 until n).toVector).take(rng.nextInt(n / 3 + 2)).toArray
        }
        val pairs = sets.iterator.flatMap(s => for (i <- s.iterator; j <- s.iterator if i < j) yield (i, j)).toSet
        val t = new PairTable(memo)
        // Cells read before the fill are not evaluated again.
        val before = pairs.take(rng.nextInt(3)) + ((0, n - 1))
        before.foreach { case (i, j) => if (i != j) t.at(i, j) }
        val lazyEvals = t.evals
        t.fill(sets)
        val all = pairs ++ before.filter { case (i, j) => i != j }
        assert(t.evals == all.size, s"n=$n sets=${sets.length}: ${t.evals} evaluations for ${all.size} pairs")
        assert(lazyEvals == before.count { case (i, j) => i != j })
        all.foreach { case (i, j) =>
          val want = metric.dist(memo.element(i), memo.element(j))
          assert(same(t.at(i, j), want) && same(t.at(j, i), want), s"cell ($i, $j)")
        }
        assert(t.evals == all.size)
        // A pair outside every set is still filled on first read, once.
        val outside = (for (i <- 0 until n; j <- 0 until i) yield (j, i)).find(p => !all.contains(p))
        outside.foreach { case (i, j) =>
          t.at(i, j); t.at(j, i)
          assert(t.evals == all.size + 1)
        }
      }
    }
  }
}
