package repro.baseline

import repro.core.{Element, FarthestFirst, Metric}

/** The Gonzalez greedy algorithm [24] ("GMM"): a [[FarthestFirst]] traversal
  * of the positions, the classic offline 1/2-approximation for unconstrained
  * max-min diversity maximization. O(nk) time, keeps all of X in memory —
  * exactly the offline comparator the paper measures against; `2 · div(GMM)`
  * also serves as the paper's upper-bound estimate of OPT_f in Table II.
  */
object GMM {

  /** Select k elements farthest-first, starting from `xs(startIdx)`, ties
    * going to the first position. A start outside `xs`, and an element with
    * a non-finite feature or with a feature count other than the first
    * element's, are rejected with an `IllegalArgumentException`.
    */
  def run(xs: IndexedSeq[Element], k: Int, metric: Metric, startIdx: Int = 0): Vector[Element] =
    picks(xs, k, metric, startIdx).map(xs)

  /** The positions in `xs` that [[run]] selects, in selection order. */
  def picks(xs: IndexedSeq[Element], k: Int, metric: Metric, startIdx: Int = 0): Vector[Int] = {
    require(xs.nonEmpty, "empty input")
    require(k >= 1 && k <= xs.length, s"k=$k out of range for n=${xs.length}")
    xs.foreach(Element.validate(_, xs.head.features.length))
    require(0 <= startIdx && startIdx < xs.length, s"startIdx=$startIdx out of range for n=${xs.length}")
    val ff = new FarthestFirst(Array.range(0, xs.length).filter(_ != startIdx), (i, j) => metric.dist(xs(i), xs(j)), _.toLong)
    Vector.iterate(startIdx, k) { last => ff.add(last); ff.pick() }
  }
}
