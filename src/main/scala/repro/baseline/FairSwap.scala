package repro.baseline

import repro.core.{Element, Metric, SFDM1}

/** FairSwap [32] — the offline 1/4-approximation for fair max-min diversity
  * maximization with m = 2 groups, reimplemented from the description in
  * [32] and §IV-A of this paper: run GMM group-blind, then balance the
  * solution by inserting the farthest point of the under-filled group chosen
  * from the *entire* group (random access over all of X — this is what makes
  * it offline and O(nk)) and deleting the over-filled group's point closest
  * to the under-filled group's points — SFDM1's [[SFDM1.balance]] with the
  * whole of X as the pool, on positions in X.
  */
object FairSwap {

  def run(xs: IndexedSeq[Element], k1: Int, k2: Int, metric: Metric): Vector[Element] = {
    require(xs.forall(e => e.group == 0 || e.group == 1), "FairSwap requires groups in {0,1}")
    require(xs.count(_.group == 0) >= k1 && xs.count(_.group == 1) >= k2, "quotas infeasible")
    val s = SFDM1.balance(GMM.picks(xs, k1 + k2, metric), xs.indices, IndexedSeq(k1, k2), xs, (i, j) => metric.dist(xs(i), xs(j)))
    s.iterator.map(xs).toVector
  }
}
