package repro.baseline

import repro.core.{Element, FarthestFirst, Metric}

/** The Gonzalez greedy algorithm [24] ("GMM"): a [[FarthestFirst]] traversal
  * of the positions, the classic offline 1/2-approximation for unconstrained
  * max-min diversity maximization. O(nk) time, keeps all of X in memory —
  * exactly the offline comparator the paper measures against; `2 · div(GMM)`
  * also serves as the paper's upper-bound estimate of OPT_f in Table II.
  */
object GMM {

  /** Select k elements farthest-first, starting from `xs(0)`, ties going to
    * the first position. An element with a non-finite feature or with a
    * feature count other than the first element's is rejected with an
    * `IllegalArgumentException`.
    */
  def run(xs: IndexedSeq[Element], k: Int, metric: Metric): Vector[Element] =
    picks(xs, k, metric).map(xs)

  /** The positions in `xs` that [[run]] selects, in selection order. */
  def picks(xs: IndexedSeq[Element], k: Int, metric: Metric): Vector[Int] = {
    require(xs.nonEmpty, "empty input")
    require(k >= 1 && k <= xs.length, s"k=$k out of range for n=${xs.length}")
    xs.foreach(Element.validate(_, xs.head.features.length))
    val ff = new FarthestFirst(Array.range(1, xs.length), (i, j) => metric.dist(xs(i), xs(j)), _.toLong)
    Vector.iterate(0, k) { last => ff.add(last); ff.pick() }
  }
}
