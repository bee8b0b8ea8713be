package repro.baseline

import repro.core.{Element, Metric}
import repro.matroid.{MatroidIntersection, PartitionMatroid}
import scala.collection.mutable

/** FairFlow [32] — the offline 1/(3m-1)-approximation for fair max-min
  * diversity maximization with arbitrary m, reimplemented from the
  * description in [32] and §IV-B of this paper (no reference implementation
  * is available in this container; see DESIGN.md).
  *
  * Shape of the algorithm: guess a diversity target τ (descending geometric
  * ladder, step 0.9, seeded by 2·div(GMM) ≥ OPT_f); build a δ-net clustering
  * of the *whole* dataset at δ = τ/(m+1); keep the first-seen element of each
  * (cluster, group) pair as its representative; assign groups to clusters
  * with Algorithm 4 ([[MatroidIntersection.augmentToMax]]) over the
  * representatives, as a maximum common independent set of the group matroid
  * (cap k_i) and the cluster matroid (cap 1), the same two partition
  * matroids as SFDM2. The maximum flow of [32]'s source → group → cluster →
  * sink network is that set's size. The first τ whose assignment fills all k
  * slots yields the solution — an *arbitrary* representative per selected
  * (group, cluster) pair, which is exactly why FairFlow's solution quality
  * degrades with m (threshold ∝ 1/m, no greedy selection), matching Table
  * II's shape.
  *
  * O(n) memory over the full dataset and O(n·#clusters) time per guess — the
  * offline inefficiency the paper's streaming algorithms eliminate.
  */
object FairFlow {

  def run(xs: IndexedSeq[Element], ks: IndexedSeq[Int], metric: Metric): Vector[Element] = {
    val m = ks.length
    val k = ks.sum
    require(xs.nonEmpty && m >= 1 && ks.forall(_ >= 1), s"need a nonempty input and quotas ≥ 1, got n=${xs.length}, ks=$ks")
    xs.foreach(e => require(e.group >= 0 && e.group < m, s"element ${e.id}: group ${e.group} out of range [0,$m)"))
    val groupSizes = Array.tabulate(m)(i => xs.count(_.group == i))
    require((0 until m).forall(i => groupSizes(i) >= ks(i)), "quotas infeasible")

    val gmm = GMM.run(xs, math.min(k, xs.length), metric)
    var tau = 2 * repro.core.Diversity.div(gmm, metric)
    if (!tau.isFinite || tau <= 0) tau = 1.0
    var attempt = 0
    while (attempt < 200) {
      val delta = tau / (m + 1)
      solveAt(xs, ks, metric, delta) match {
        case Some(sol) => return sol
        case None      => tau *= 0.9; attempt += 1
      }
    }
    // δ below d_min makes every point its own cluster, where feasibility is
    // guaranteed by the quota check above — so this is unreachable.
    throw new IllegalStateException("FairFlow: no feasible threshold found")
  }

  /** One guess: δ-net clustering, then a maximum group→cluster assignment. */
  private def solveAt(xs: IndexedSeq[Element], ks: IndexedSeq[Int], metric: Metric, delta: Double): Option[Vector[Element]] = {
    // Greedy δ-net: a point within δ of an existing center joins that
    // cluster, otherwise it becomes a new center.
    val centers = mutable.ArrayBuffer.empty[Element]
    // Representative element per (cluster, group), first-seen, in arrival order.
    val rep = mutable.LinkedHashMap.empty[(Int, Int), Element]
    xs.foreach { x =>
      var best = -1
      var bestD = Double.PositiveInfinity
      var c = 0
      while (c < centers.length) {
        val d = metric.dist(x, centers(c))
        if (d < bestD) { bestD = d; best = c }
        c += 1
      }
      val cluster =
        if (best >= 0 && bestD < delta) best
        else { centers += x; centers.length - 1 }
      rep.getOrElseUpdate((cluster, x.group), x)
    }
    // One ground position per representative: M₁ caps group i at k_i, M₂
    // caps each cluster at 1. A constant distance turns Algorithm 4's greedy
    // phase into a smallest-id-first maximal set, so the assignment stays
    // arbitrary, as in [32].
    val reps = rep.values.toArray
    val m1 = new PartitionMatroid(reps.map(_.group), ks)
    val m2 = new PartitionMatroid(rep.keysIterator.map(_._1).toArray, _ => 1)
    val picked = MatroidIntersection.augmentToMax(m1, m2, (_, _) => 0.0, p => reps(p).id, Nil)
    if (picked.length < ks.sum) None else Some(picked.iterator.map(reps(_)).toVector)
  }
}
