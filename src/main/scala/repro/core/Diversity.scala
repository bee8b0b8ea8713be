package repro.core

/** The diversity objective. */
object Diversity {

  /** `div(S) = min_{x≠y ∈ S} d(x,y)`; +∞ for |S| < 2 (the objective is only
    * meaningful for k ≥ 2, matching the paper's convention that `div` is
    * monotonically non-increasing under insertion).
    */
  def div(s: Seq[Element], metric: Metric): Double = {
    val v = s.toIndexedSeq
    div(Array.range(0, v.length), (i, j) => metric.dist(v(i), v(j)))
  }

  /** `div` of the set of handles `s` (memo slots, or positions in a ground
    * set) under a distance between handles, which reads the pairs of `s` in
    * the order i < j.
    */
  def div(s: Array[Int], dist: (Int, Int) => Double): Double = {
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
}
