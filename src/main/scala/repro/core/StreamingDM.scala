package repro.core

/** Algorithm 1 — the streaming algorithm for *unconstrained* max-min
  * diversity maximization of Borassi et al. [7], with the improved
  * `(1-ε)/2` approximation ratio of Theorem 1.
  *
  * One µ-separated candidate of capacity k is maintained per guess
  * `µ ∈ U`; the returned solution is the full candidate with maximum
  * diversity, which [[CandidateBank.finish]] picks. Stores `O(k·logΔ/ε)`
  * elements, `O(k·logΔ/ε)` time per element.
  */
final class StreamingDM(
    k: Int,
    eps: Double,
    bounds: DistanceBounds,
    metric: Metric,
) extends CandidateBank(k, IndexedSeq.empty, IndexedSeq.empty, eps, bounds, metric) {
  require(k >= 2, s"k must be ≥ 2, got $k")

  override protected def solve(j: Int, sAll: Array[Int], dist: PairTable): Array[Int] = blind.slots(j)
}
