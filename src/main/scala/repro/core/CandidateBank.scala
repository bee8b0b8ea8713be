package repro.core

import java.util.stream.IntStream

/** The stream phase and the post-processing frame shared by Algorithm 1,
  * SFDM1 and SFDM2.
  *
  * Per guess `µ ∈ U` it keeps a group-blind candidate `S_µ` of capacity k
  * and, per group i, a candidate `S_µ,i` of capacity `groupCaps(i)`: none for
  * Algorithm 1, k_i for SFDM1, k for SFDM2. The blind candidates form one
  * [[Part]] and each group's another. An arrival goes to the blind part and
  * to its own group's, which offer it to those of their candidates that it
  * can change. [[finish]] solves each guess of `U'` and picks the answer; the
  * algorithms differ only in how they [[solve]] one guess. Post-processing
  * names a stored element by its [[DistanceMemo]] slot; only the answer is
  * turned back into elements.
  *
  * @param k         capacity of the blind candidates (the solution size)
  * @param groupCaps capacity of each group's candidates; empty for none
  * @param quotas    k_i for each group; empty for Algorithm 1
  */
abstract class CandidateBank(
    val k: Int,
    groupCaps: IndexedSeq[Int],
    quotas: IndexedSeq[Int],
    eps: Double,
    bounds: DistanceBounds,
    metric: Metric,
) extends FdmState {

  /** Ascending guesses for OPT. */
  val guesses: Array[Double] = GuessLadder(bounds.dmin, bounds.dmax, eps)
  // One memo for every candidate: an arrival meets each stored element once.
  protected[core] val memo = new DistanceMemo(metric)
  private[core] val blind = new Part(k, guesses, memo)
  private[core] val groups: Array[Part] = groupCaps.map(cap => new Part(cap, guesses, memo)).toArray
  // Algorithm 1 has no groups: its blind candidates are its one part, with
  // quota k. `U'` and the fallback read parts and their quotas.
  private val parts = if (quotas.isEmpty) Array(blind) else groups
  private val partQuotas = if (quotas.isEmpty) IndexedSeq(k) else quotas

  // Feature length of the arrivals so far, and `seen` = −1 once there has
  // been one (0 before). The length test has no branch that only a stream's
  // first arrival takes: the JIT would compile it as never taken and then
  // deoptimise `process` at the first arrival of the next stream.
  private var dim = 0
  private var seen = 0

  /** Offer `x` to its candidates. An arrival whose group is out of range,
    * whose feature length differs from the first arrival's, or that has a
    * non-finite feature is rejected with an `IllegalArgumentException`.
    * It reads no clock: the stream phase is timed as one interval, from the
    * blind part's first arrival to the start of [[finish]].
    */
  override def process(x: Element): Unit = {
    require(groups.isEmpty || (x.group >= 0 && x.group < groups.length), s"element ${x.id}: group ${x.group} out of range [0,${groups.length})")
    val len = x.features.length
    if (((len ^ dim) & seen) != 0 || !java.lang.Double.isFinite(x.sqNorm)) screen(x)
    dim = len
    seen = -1
    blind.offer(x)
    if (groups.length > 0) groups(x.group).offer(x)
  }

  /** Rejects an arrival that failed [[process]]'s test, naming it, unless
    * its features are finite and only their squares overflowed. Kept out of
    * line so that `process` stays small for the JIT.
    */
  private def screen(x: Element): Unit = Element.validate(x, if (seen == 0) -1 else dim)

  /** The stored elements in slot order: every slot is handed out at a
    * candidate's admission, and candidates are insert-only.
    */
  override def contents: IndexedSeq[Element] = IndexedSeq.tabulate(memo.size)(memo.element)

  override def storedElementCount: Int = memo.size

  /** `U'`: guesses whose blind candidate is full and whose part-i candidate
    * holds at least `partQuotas(i)` elements.
    */
  private def eligible: IndexedSeq[Int] =
    guesses.indices.filter(j => blind.isFull(j) && parts.indices.forall(i => parts(i).size(j) >= partQuotas(i)))

  /** Degenerate case (no fair set: a group below its quota, or a ladder
    * floor too high for the data): the first `partQuotas(i)` elements of each
    * part's candidate at the first guess covering most of the quotas.
    */
  private def fallback: Array[Int] = {
    val j = guesses.indices.maxBy(j => parts.indices.map(i => math.min(parts(i).size(j), partQuotas(i))).sum)
    parts.indices.toArray.flatMap(i => parts(i).slots(j).take(partQuotas(i)))
  }

  /** Line 12: `S_all`, the distinct slots of guess j's candidates, group
    * candidates first (Algorithm 4 walks the ground set in this order), each
    * slot where it first occurs. `seen` is all clear on entry and on exit.
    */
  private def sAll(j: Int, seen: java.util.BitSet): Array[Int] = {
    val all = (groups :+ blind).flatMap(_.slots(j)).filter { s => val fresh = !seen.get(s); seen.set(s); fresh }
    all.foreach(seen.clear)
    all
  }

  /** The algorithm's set at guess `j`, as slots, built from `sAll`, the
    * distinct slots of the guess's candidates. It reads only pairs within
    * `sAll` from `dist`, and runs concurrently with the other guesses.
    */
  protected def solve(j: Int, sAll: Array[Int], dist: PairTable): Array[Int]

  /** Solves the guesses of `U'` in parallel over a pre-filled pair table and
    * returns the first max-div set of size k in guess order (Algorithm 1's
    * Line 7), or the [[fallback]]. An empty stream has no solution whose
    * diversity could be compared, so it is rejected rather than reported as
    * +∞. Two or more arrivals whose points all coincide have no set of
    * positive diversity; for k ≥ 2 that is seen, and rejected with an
    * `IllegalArgumentException`.
    */
  final override def finish(): FdmResult = {
    val t0 = System.nanoTime()
    // The first arrival enters every blind candidate.
    if (blind.size(0) == 0) throw new IllegalStateException("the stream was empty: finish() before any arrival")
    require(!blind.coincident, "degenerate stream: all points coincide")
    val dist = new PairTable(memo)
    val js = eligible
    val seen = new java.util.BitSet(memo.size)
    val sAlls = js.map(sAll(_, seen))
    dist.fill(sAlls)
    val filled = dist.evals
    val solved = new Array[Array[Int]](js.length)
    IntStream.range(0, js.length).parallel().forEach(t => solved(t) = solve(js(t), sAlls(t), dist))
    assert(dist.evals == filled, "a guess read a pair outside its S_all")
    // Size k means every quota is met: SFDM1 balances to the quotas, and
    // SFDM2's fairness matroid caps group i at k_i.
    val fairSets = solved.filter(_.length == k)
    val at: (Int, Int) => Double = dist.at
    val sol = if (fairSets.nonEmpty) fairSets.maxBy(Diversity.div(_, at)) else fallback
    val post = System.nanoTime() - t0
    val div = Diversity.div(sol, at)
    val offers = groups.foldLeft(blind.offers)(_ + _.offers)
    FdmResult(sol.iterator.map(memo.element).toVector, div, fairSets.nonEmpty, memo.size, t0 - blind.firstArrivalNanos, post, memo.evals, offers, dist.evals)
  }
}
