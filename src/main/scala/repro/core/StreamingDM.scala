package repro.core

import scala.collection.immutable.ArraySeq

/** Algorithm 1 — the streaming algorithm for *unconstrained* max-min
  * diversity maximization of Borassi et al. [7], with the improved
  * `(1-ε)/2` approximation ratio of Theorem 1.
  *
  * One µ-separated candidate of capacity k is maintained per guess
  * `µ ∈ U`; the returned solution is the full candidate with maximum
  * diversity. Stores `O(k·logΔ/ε)` elements, `O(k·logΔ/ε)` time per element.
  */
final class StreamingDM(
    k: Int,
    eps: Double,
    bounds: DistanceBounds,
    metric: Metric,
) extends CandidateBank(k, IndexedSeq.empty, eps, bounds, metric) {
  require(k >= 2, s"k must be ≥ 2, got $k")

  /** All candidates, ascending in µ (exposed for tests). */
  def candidates: IndexedSeq[Candidate] = ArraySeq.unsafeWrapArray(blind)

  /** Line 7: among full candidates, the one with maximum diversity. If no
    * candidate filled (possible only when the ladder floor exceeds what the
    * data admits), falls back to the largest candidate — best effort, flagged
    * by `solution.size < k`.
    */
  override protected def postProcess(dist: PairTable): Vector[Element] = {
    val full = eligible(IndexedSeq.empty).map(blind)
    val pick =
      if (full.nonEmpty) full.maxBy(c => Diversity.div(c.elements, dist))
      else blind.maxBy(_.size)
    pick.elements.toVector
  }
}
