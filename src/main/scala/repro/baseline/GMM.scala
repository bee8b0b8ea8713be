package repro.baseline

import repro.core.{Element, Metric}

/** The Gonzalez greedy algorithm [24] ("GMM"): farthest-point traversal,
  * the classic offline 1/2-approximation for unconstrained max-min diversity
  * maximization. O(nk) time, keeps all of X in memory — exactly the offline
  * comparator the paper measures against; `2 · div(GMM)` also serves as the
  * paper's upper-bound estimate of OPT_f in Table II.
  */
object GMM {

  /** Select k elements farthest-first, starting from `xs(startIdx)`. An
    * element with a non-finite feature, or with a feature count other than
    * the first element's, is rejected with an `IllegalArgumentException`.
    */
  def run(xs: IndexedSeq[Element], k: Int, metric: Metric, startIdx: Int = 0): Vector[Element] =
    picks(xs, k, metric, startIdx).map(xs)

  /** The positions in `xs` that [[run]] selects, in selection order. */
  def picks(xs: IndexedSeq[Element], k: Int, metric: Metric, startIdx: Int = 0): Vector[Int] = {
    require(xs.nonEmpty, "empty input")
    require(k >= 1 && k <= xs.length, s"k=$k out of range for n=${xs.length}")
    xs.foreach(Element.validate(_, xs.head.features.length))
    val n = xs.length
    val dist = Array.fill(n)(Double.PositiveInfinity)
    val sol = Vector.newBuilder[Int]
    var last = startIdx
    sol += last
    dist(last) = Double.NegativeInfinity // never re-pick the start element
    var picked = 1
    while (picked < k) {
      var bestIdx = -1
      var bestDist = Double.NegativeInfinity
      var i = 0
      while (i < n) {
        val d = metric.dist(xs(i), xs(last))
        if (d < dist(i)) dist(i) = d
        if (dist(i) > bestDist) { bestDist = dist(i); bestIdx = i }
        i += 1
      }
      last = bestIdx
      sol += last
      dist(last) = Double.NegativeInfinity // never re-pick
      picked += 1
    }
    sol.result()
  }
}
