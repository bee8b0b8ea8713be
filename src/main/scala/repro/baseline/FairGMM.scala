package repro.baseline

import repro.core.{Element, Metric}

/** FairGMM [32] — the offline 1/5-approximation for fair max-min diversity
  * maximization, practical only for small k and m: build a GMM candidate
  * pool of k points per group, then exhaustively search the fair
  * combinations (choose k_i from pool i) for the most diverse one, with
  * branch-and-bound pruning on the (monotone non-increasing) diversity.
  *
  * The paper excludes it from Table II because the Θ(C(k,k_i)^m) enumeration
  * "cannot scale to k > 10 and m > 5"; this implementation enforces the same
  * envelope via `maxCombos`.
  */
object FairGMM {

  /** @param maxCombos hard cap on enumerated combinations (scalability guard) */
  def run(xs: IndexedSeq[Element], ks: IndexedSeq[Int], metric: Metric, maxCombos: Long = 5_000_000L): Vector[Element] = {
    val m = ks.length
    val k = ks.sum
    val byGroup = (0 until m).map(i => xs.filter(_.group == i))
    require(byGroup.zip(ks).forall { case (g, ki) => g.length >= ki }, "quotas infeasible")
    // Candidate pool per group: k farthest-first points (or the whole group).
    val pools: IndexedSeq[IndexedSeq[Element]] =
      byGroup.map(g => GMM.run(g, math.min(k, g.length), metric))
    val total = pools.zip(ks).map { case (p, ki) => comb(p.length, ki) }.product
    require(total <= maxCombos, s"FairGMM enumeration too large: $total combinations")

    var best = Double.NegativeInfinity
    var arg: Vector[Element] = Vector.empty
    def rec(g: Int, acc: List[Element], accDiv: Double): Unit = {
      if (accDiv <= best) return // pruning: div can only shrink
      if (g == m) {
        if (accDiv > best) { best = accDiv; arg = acc.toVector }
      } else {
        pools(g).combinations(ks(g)).foreach { c =>
          var d = accDiv
          // incremental div of acc ∪ c
          val cl = c.toList
          for (x <- cl) {
            for (y <- acc) d = math.min(d, metric.dist(x, y))
            for (y <- cl if y.id != x.id) d = math.min(d, metric.dist(x, y))
          }
          rec(g + 1, cl ::: acc, d)
        }
      }
    }
    rec(0, Nil, Double.PositiveInfinity)
    assert(arg.length == k, s"FairGMM produced ${arg.length} ≠ $k elements")
    arg
  }

  private def comb(n: Int, r: Int): Long = {
    var res = 1L
    for (i <- 1 to r) res = res * (n - r + i) / i
    res
  }
}
