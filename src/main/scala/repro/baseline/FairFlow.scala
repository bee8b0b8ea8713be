package repro.baseline

import repro.core.{Diversity, Element, Metric, SFDM2}
import repro.matroid.{MatroidIntersection, PartitionMatroid}

/** FairFlow [32] — the offline 1/(3m-1)-approximation for fair max-min
  * diversity maximization with arbitrary m, reimplemented from the
  * description in [32] and §IV-B of this paper (no reference implementation
  * is available in this container; see DESIGN.md).
  *
  * Shape of the algorithm: one GMM traversal of each group X_i (k picks, or
  * all of X_i), then a descending ladder of diversity targets τ (step 0.9,
  * seeded by 2·div(GMM(X, k)) ≥ OPT_f). At each τ the ground set is every
  * group's τ-separated prefix of picks; it is single-linkage clustered at
  * τ/(m+1) ([[SFDM2.clusterIds]]), and groups are assigned to clusters with
  * Algorithm 4 ([[MatroidIntersection.augmentToMax]]) as a maximum common
  * independent set of the group matroid (cap k_i) and the cluster matroid
  * (cap 1), the same two partition matroids as SFDM2. The maximum flow of
  * [32]'s source → group → cluster → sink network is that set's size. The
  * first τ whose assignment fills all k slots yields the solution — an
  * *arbitrary* prefix point per selected (group, cluster) pair, which is
  * exactly why FairFlow's solution quality degrades with m (threshold ∝ 1/m,
  * no greedy selection), matching Table II's shape. DESIGN.md ("FairFlow on
  * per-group GMM prefixes") gives the 0.9/(3m+1) argument.
  *
  * O(kn) time for the traversals, then O((mk)²) per τ; it keeps all of X in
  * memory — the offline inefficiency the paper's streaming algorithms
  * eliminate.
  */
object FairFlow {

  def run(xs: IndexedSeq[Element], ks: IndexedSeq[Int], metric: Metric): Vector[Element] = {
    val m = ks.length
    val k = ks.sum
    require(xs.nonEmpty && m >= 1 && ks.forall(_ >= 1), s"need a nonempty input and quotas ≥ 1, got n=${xs.length}, ks=$ks")
    xs.foreach(e => require(e.group >= 0 && e.group < m, s"element ${e.id}: group ${e.group} out of range [0,$m)"))
    val groups = Array.tabulate(m)(i => xs.filter(_.group == i))
    require((0 until m).forall(i => groups(i).length >= ks(i)), "quotas infeasible")

    var tau = 2 * Diversity.div(GMM.run(xs, math.min(k, xs.length), metric), metric)
    if (!tau.isFinite || tau <= 0) tau = 1.0
    // Each group's picks with their gaps: the distance to the picks before,
    // +∞ for the first, the value the traversal picked it at. Gaps never rise
    // along a traversal, so the picks of gap ≥ τ are a prefix.
    val picks = groups.flatMap { g =>
      val p = GMM.run(g, math.min(k, g.length), metric)
      p.indices.map(j => p(j) -> p.take(j).foldLeft(Double.PositiveInfinity) { (best, y) => val d = metric.dist(p(j), y); if (d < best) d else best })
    }
    var attempt = 0
    while (attempt < 200) {
      val pre = picks.collect { case (x, gap) if gap >= tau => x }
      val cluster = SFDM2.clusterIds(pre.length, tau / (m + 1), (a, b) => metric.dist(pre(a), pre(b)))
      // A constant distance turns Algorithm 4's greedy phase into a
      // smallest-id-first maximal set, so the assignment stays arbitrary, as
      // in [32].
      val m1 = new PartitionMatroid(pre.map(_.group), ks)
      val m2 = new PartitionMatroid(cluster, _ => 1)
      val picked = MatroidIntersection.augmentToMax(m1, m2, (_, _) => 0.0, pre(_).id, Nil)
      if (picked.length == k) return picked.iterator.map(pre).toVector
      tau *= 0.9; attempt += 1
    }
    // Once τ ≤ OPT_f·(m+1)/(3m+1) the assignment reaches k (DESIGN.md), so
    // only OPT_f = 0 (a quota that needs coincident points), or an OPT_f
    // below 0.9^200·τ₀, gets here.
    throw new IllegalStateException("FairFlow: no feasible threshold found")
  }
}
