package repro.core

/** Diversity objective and exact (brute-force) optima for test oracles. */
object Diversity {

  /** `div(S) = min_{x≠y ∈ S} d(x,y)`; +∞ for |S| < 2 (the objective is only
    * meaningful for k ≥ 2, matching the paper's convention that `div` is
    * monotonically non-increasing under insertion).
    */
  def div(s: Seq[Element], dist: Distance): Double = {
    if (s.length < 2) return Double.PositiveInfinity
    var best = Double.PositiveInfinity
    var i = 0
    while (i < s.length) {
      var j = i + 1
      while (j < s.length) {
        val d = dist(s(i), s(j))
        if (d < best) best = d
        j += 1
      }
      i += 1
    }
    best
  }

  /** `d(x, S) = min_{y ∈ S} d(x,y)`; +∞ for empty S. */
  def distToSet(x: Element, s: Iterable[Element], dist: Distance): Double = {
    var best = Double.PositiveInfinity
    val it = s.iterator
    while (it.hasNext) {
      val d = dist(x, it.next())
      if (d < best) best = d
    }
    best
  }

  /** Exact optimum of unconstrained DM by subset enumeration — test oracle
    * only; O(C(n,k)·k²), callers keep n ≤ ~15.
    */
  def bruteForceOpt(xs: IndexedSeq[Element], k: Int, metric: Metric): Double = {
    require(xs.length >= k, s"need at least $k elements, got ${xs.length}")
    var best = Double.NegativeInfinity
    xs.combinations(k).foreach { c =>
      val d = div(c, metric)
      if (d > best) best = d
    }
    best
  }

  /** Exact optimum of *fair* DM by per-group subset enumeration — test oracle
    * only. Returns -∞ if no valid fair solution exists.
    */
  def bruteForceFairOpt(xs: IndexedSeq[Element], ks: IndexedSeq[Int], metric: Metric): Double = {
    val byGroup = xs.groupBy(_.group)
    if (ks.zipWithIndex.exists { case (ki, i) => byGroup.getOrElse(i, IndexedSeq.empty).length < ki })
      return Double.NegativeInfinity
    // Cartesian product of per-group combinations.
    def rec(g: Int, acc: List[Element], best: Double): Double = {
      if (g == ks.length) math.max(best, div(acc, metric))
      else {
        var b = best
        byGroup.getOrElse(g, IndexedSeq.empty).combinations(ks(g)).foreach { c =>
          b = rec(g + 1, c.toList ::: acc, b)
        }
        b
      }
    }
    rec(0, Nil, Double.NegativeInfinity)
  }
}
