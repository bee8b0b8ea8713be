package repro.core

import repro.matroid.{MatroidIntersection, PartitionMatroid}
import scala.collection.mutable

/** Algorithm 3 — SFDM2, the `(1-ε)/(3m+2)`-approximation streaming algorithm
  * for fair max-min diversity maximization with an arbitrary number m of
  * groups.
  *
  * Stream processing keeps, per guess µ: a group-blind candidate `S_µ` of
  * capacity k and m group-specific candidates `S_µ,i` of capacity k (note:
  * k, not k_i — the difference from SFDM1). Post-processing runs on
  * `U' = {µ : |S_µ|=k ∧ |S_µ,i| ≥ k_i ∀i}`: it extracts a partial solution
  * `S'_µ` from `S_µ` by truncating over-filled groups, single-linkage
  * clusters all stored elements at threshold µ/(m+1) (Lemma 3), and augments
  * `S'_µ` to a maximum-cardinality set in the intersection of the fairness
  * matroid M₁ and the cluster matroid M₂ via Algorithm 4.
  *
  * Stores O(km·logΔ/ε) elements; O(k·logΔ/ε) time per element (only the
  * blind and own-group candidates are touched); post-processing
  * O(k²m·logΔ/ε·(m + log²k)) (Theorem 5).
  */
final class SFDM2(
    ks: IndexedSeq[Int],
    eps: Double,
    bounds: DistanceBounds,
    metric: Metric,
) extends CandidateBank(ks.sum, IndexedSeq.fill(ks.length)(ks.sum), ks, eps, bounds, metric) {
  require(ks.nonEmpty && ks.forall(_ >= 1), s"group quotas must all be ≥ 1, got $ks")
  val m: Int = ks.length

  /** Post-process one guess: initial partial solution, clusters, matroid
    * intersection (Lines 11, 13–18) over the positions of its `sAll`
    * (Line 12). Returns the augmented set as slots (fair iff size k).
    */
  override protected def solve(j: Int, sAll: Array[Int], dist: PairTable): Array[Int] = {
    val mu = guesses(j)
    val at = (a: Int, b: Int) => dist.at(sAll(a), sAll(b))
    // Line 11: from each group keep min(k_i, count) elements of S_µ (arbitrary
    // choice allowed — insertion order kept for determinism).
    val blindSlots = blind.slots(j)
    val sPrime = (0 until m).flatMap(i => blindSlots.filter(memo.element(_).group == i).take(ks(i)))
    // Lines 13–16: clusters.
    val cluster = SFDM2.clusterIds(sAll.length, mu / (m + 1), at)
    // Line 17: M1 = fairness partition matroid, M2 = cluster partition matroid.
    val m1 = new PartitionMatroid(sAll.map(memo.element(_).group), ks)
    val m2 = new PartitionMatroid(cluster, _ => 1)
    // Defensive: Lemma 3(ii) guarantees S'_µ ∈ I₂; enforce it anyway so a
    // pathological guess can never crash the augmentation.
    val usedCluster = mutable.Set.empty[Int]
    val s0 = sPrime.map(sAll.indexOf(_)).filter(p => usedCluster.add(cluster(p)))
    // Line 18 / Algorithm 4.
    MatroidIntersection.augmentToMax(m1, m2, at, p => memo.element(sAll(p)).id, s0).map(sAll(_))
  }
}

object SFDM2 {

  /** Single-linkage clustering of the positions `0 until n` at threshold
    * `thr` (Lines 13–16, with `thr` = µ/(m+1); FairFlow uses it at τ/(m+1))
    * via union-find, under a distance between positions. Returns a cluster
    * id for each position.
    */
  def clusterIds(n: Int, thr: Double, dist: (Int, Int) => Double): Array[Int] = {
    val parent = Array.tabulate(n)(identity)
    def find(a: Int): Int = { var r = a; while (parent(r) != r) r = parent(r); var c = a; while (parent(c) != c) { val nx = parent(c); parent(c) = r; c = nx }; r }
    def union(a: Int, b: Int): Unit = { val ra = find(a); val rb = find(b); if (ra != rb) parent(rb) = ra }
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        if (dist(i, j) < thr) union(i, j)
        j += 1
      }
      i += 1
    }
    Array.tabulate(n)(find)
  }
}
