package repro.core

import scala.collection.mutable

/** The stream phase shared by Algorithm 1, SFDM1 and SFDM2.
  *
  * Per guess `µ ∈ U` it keeps a group-blind candidate `S_µ` of capacity k
  * and, per group i, a candidate `S_µ,i` of capacity `groupCaps(i)`: none for
  * Algorithm 1, k_i for SFDM1, k for SFDM2. An arrival is offered to every
  * blind candidate and to every candidate of its own group. The algorithms
  * differ only in [[postProcess]].
  *
  * @param k         capacity of the blind candidates (the solution size)
  * @param groupCaps capacity of each group's candidates; empty for none
  */
abstract class CandidateBank(
    val k: Int,
    groupCaps: IndexedSeq[Int],
    eps: Double,
    bounds: DistanceBounds,
    metric: Metric,
) extends FdmState {

  /** Ascending guesses for OPT. */
  val guesses: Array[Double] = GuessLadder(bounds.dmin, bounds.dmax, eps)
  // One memo for every candidate: an arrival meets each stored element once.
  protected[core] val memo = new DistanceMemo(metric)
  protected val blind: Array[Candidate] = guesses.map(mu => new Candidate(k, mu, memo))
  // grp(i)(j): candidate for group i at guess j.
  protected val grp: Array[Array[Candidate]] =
    groupCaps.map(cap => guesses.map(mu => new Candidate(cap, mu, memo))).toArray

  private var streamNs = 0L
  // Feature length of the arrivals so far, and `seen` = −1 once there has
  // been one (0 before). The length test has no branch that only a stream's
  // first arrival takes: the JIT would compile it as never taken and then
  // deoptimise `process` at the first arrival of the next stream.
  private var dim = 0
  private var seen = 0

  /** Offer `x` to its candidates. An arrival whose group is out of range,
    * whose feature length differs from the first arrival's, or that has a
    * non-finite feature is rejected with an `IllegalArgumentException`.
    */
  override def process(x: Element): Unit = {
    require(grp.isEmpty || (x.group >= 0 && x.group < grp.length), s"element ${x.id}: group ${x.group} out of range [0,${grp.length})")
    val len = x.features.length
    if (((len ^ dim) & seen) != 0 || !java.lang.Double.isFinite(x.sqNorm)) screen(x)
    dim = len
    seen = -1
    val t0 = System.nanoTime()
    val g = if (grp.isEmpty) null else grp(x.group)
    var j = 0
    while (j < blind.length) {
      blind(j).tryAdd(x)
      if (g != null) g(j).tryAdd(x)
      j += 1
    }
    streamNs += System.nanoTime() - t0
  }

  /** Rejects an arrival that failed [[process]]'s test, naming it, unless
    * its features are finite and only their squares overflowed. Kept out of
    * line so that `process` stays small for the JIT.
    */
  private def screen(x: Element): Unit = Element.validate(x, if (seen == 0) -1 else dim)

  /** Blind candidates first, then each group's, dedup by id. */
  override def contents: IndexedSeq[Element] = distinct(blind.iterator ++ grp.iterator.flatMap(_.iterator))

  /** Elements of `cs` in iteration order, first occurrence of each id kept. */
  protected def distinct(cs: Iterator[Candidate]): IndexedSeq[Element] = {
    val seen = mutable.LinkedHashMap.empty[Long, Element]
    cs.foreach(_.elements.foreach(e => seen.getOrElseUpdate(e.id, e)))
    seen.values.toIndexedSeq
  }

  /** `U'`: guesses whose blind candidate is full and whose group-i candidate
    * holds at least `quotas(i)` elements.
    */
  protected def eligible(quotas: IndexedSeq[Int]): IndexedSeq[Int] =
    guesses.indices.filter(j => blind(j).isFull && quotas.indices.forall(i => grp(i)(j).size >= quotas(i)))

  /** Degenerate case (no guess yielded a full fair set — ladder floor too high
    * for the data): the first `quotas(i)` elements of each group candidate at
    * the guess covering most of the quotas. The paper assumes this cannot
    * happen; callers see it through `solution.size`.
    */
  protected def fallback(quotas: IndexedSeq[Int]): Vector[Element] = {
    val j = guesses.indices.maxBy(j => quotas.indices.map(i => math.min(grp(i)(j).size, quotas(i))).sum)
    quotas.indices.flatMap(i => grp(i)(j).elements.take(quotas(i))).toVector
  }

  /** The algorithm's solution, built from the candidates; every distance it
    * needs comes from `dist`.
    */
  protected def postProcess(dist: PairTable): Vector[Element]

  /** Post-processing and the reported `div(solution)` share one pair table.
    * An empty stream has no solution whose diversity could be compared, so it
    * is rejected rather than reported as +∞.
    */
  final override def finish(): FdmResult = {
    if (seen == 0) throw new IllegalStateException("the stream was empty: finish() before any arrival")
    val t0 = System.nanoTime()
    val dist = new PairTable(memo)
    val sol = postProcess(dist)
    val post = System.nanoTime() - t0
    FdmResult(sol, Diversity.div(sol, dist), storedElementCount, streamNs, post, memo.evals, dist.evals)
  }
}
