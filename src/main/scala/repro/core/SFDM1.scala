package repro.core

import scala.collection.mutable
import scala.math.Ordering.Double.TotalOrdering

/** Algorithm 2 — SFDM1, the `(1-ε)/4`-approximation streaming algorithm for
  * fair max-min diversity maximization with exactly m = 2 groups.
  *
  * Stream processing keeps, per guess µ: a group-blind candidate `S_µ`
  * (capacity k = k₁+k₂) and group-specific candidates `S_µ,i` (capacity k_i).
  * Post-processing runs on `U' = {µ : |S_µ|=k ∧ |S_µ,i|=k_i ∀i}` and balances
  * each `S_µ` with [[SFDM1.balance]] from the under-filled group's candidate
  * (Lines 10–17).
  *
  * Stores O(k·logΔ/ε) elements; O(k·logΔ/ε) time per element;
  * O(k²·logΔ/ε) post-processing time (Theorem 3).
  */
final class SFDM1(
    k1: Int,
    k2: Int,
    eps: Double,
    bounds: DistanceBounds,
    metric: Metric,
) extends CandidateBank(k1 + k2, IndexedSeq(k1, k2), IndexedSeq(k1, k2), eps, bounds, metric) {
  require(k1 >= 1 && k2 >= 1, s"group quotas must be ≥ 1, got ($k1, $k2)")
  private val ks = IndexedSeq(k1, k2)

  override protected def solve(j: Int, sAll: Array[Int], dist: PairTable): Array[Int] =
    SFDM1.balance(blind.slots(j), sAll, ks, memo.element, dist.at)
}

object SFDM1 {

  /** The swap balance of SFDM1 (Lines 11–17) and FairSwap for m = 2 groups,
    * on integer handles: memo slots for SFDM1, positions in the input for
    * FairSwap. `elem` gives a handle's element (its group and, for ties, its
    * id) and `dist` the distance between two handles.
    *
    * If group `iu` holds fewer than `ks(iu)` elements of `s`, insert `pool`
    * handles of group `iu` that are not in `s` by a [[FarthestFirst]]
    * traversal from the group-`iu` handles in `s` (ties go to the smaller id;
    * an exhausted pool throws), then delete the other group's handles closest
    * to group `iu`'s, the smallest (distance, id) first, until `|s| = Σ ks`.
    * A balanced `s` is returned unchanged.
    */
  def balance(s0: Iterable[Int], pool: Iterable[Int], ks: IndexedSeq[Int], elem: Int => Element, dist: (Int, Int) => Double): Array[Int] = {
    val s = mutable.ArrayBuffer.from(s0)
    ks.indices.find(i => s.count(elem(_).group == i) < ks(i)).fold(s.toArray) { iu =>
      val inU = s.filter(elem(_).group == iu)
      val ff = new FarthestFirst(pool.iterator.filter(x => elem(x).group == iu && !s.contains(x)).toArray, dist, elem(_).id)
      inU.foreach(ff.add)
      while (inU.length < ks(iu)) {
        val p = ff.pick()
        s += p; inU += p; ff.add(p)
      }
      // Group iu is final now: read each other-group handle's distance to it once.
      def toU(x: Int) = inU.foldLeft(Double.PositiveInfinity) { (best, y) => val d = dist(x, y); if (d < best) d else best }
      val others = s.indices.filter(t => elem(s(t)).group != iu).map(t => (toU(s(t)), elem(s(t)).id, t))
      val drop = others.sorted.take(s.length - ks.sum).map(_._3).toSet
      s.indices.filterNot(drop).map(s).toArray
    }
  }
}
