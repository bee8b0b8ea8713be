package repro.core

import scala.collection.mutable

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

  override protected def solve(j: Int, sAll: IndexedSeq[Element], dist: PairTable): Vector[Element] =
    SFDM1.balance(blind.elements(j), sAll, ks, dist)
}

object SFDM1 {

  /** The swap balance of SFDM1 (Lines 11–17) and FairSwap for m = 2 groups.
    * If group `iu` holds fewer than `ks(iu)` elements of `s`, insert `pool`
    * elements of group `iu` farthest-first from the group-`iu` elements
    * already in `s` (GMM-style; distance to the empty set is +∞, ties go to
    * the smaller id), then delete the other group's elements closest to
    * group `iu`'s until `|s| = Σ ks`. A balanced `s` is returned unchanged.
    */
  def balance(s0: Seq[Element], pool: Seq[Element], ks: IndexedSeq[Int], dist: Distance): Vector[Element] = {
    val s = mutable.ArrayBuffer.from(s0)
    ks.indices.find(i => s.count(_.group == i) < ks(i)) match {
      case None => s.toVector
      case Some(iu) =>
        val poolLeft = mutable.ArrayBuffer.from(pool.filter(e => e.group == iu && !s.exists(_.id == e.id)))
        while (s.count(_.group == iu) < ks(iu)) {
          val inGroup = s.filter(_.group == iu)
          val pick = poolLeft.maxBy(x => (Diversity.distToSet(x, inGroup, dist), -x.id))
          s += pick
          poolLeft -= pick
        }
        val inGroupU = s.filter(_.group == iu)
        while (s.length > ks.sum) {
          val victim = s.filter(_.group != iu).minBy(x => (Diversity.distToSet(x, inGroupU, dist), x.id))
          s -= victim
        }
        s.toVector
    }
  }
}
