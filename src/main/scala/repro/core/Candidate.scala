package repro.core

/** One per-guess candidate set `S_µ`: a bounded, insert-only µ-separated set.
  *
  * An element is admitted iff the candidate is below capacity and its distance
  * to every stored element is at least µ (Lines 5–6 of Algorithm 1). The
  * invariant `div(S_µ) ≥ µ` therefore holds at all times, which Theorem 1 and
  * Lemmas 1–4 rely on.
  *
  * The candidate stores the [[DistanceMemo]] slots of its elements and reads
  * distances through the memo, which the candidates of one bank share.
  *
  * @param cap  capacity (k for group-blind and SFDM2 group candidates,
  *             k_i for SFDM1 group candidates)
  * @param mu   separation threshold, one guess of OPT
  * @param memo distance cache and slot owner
  */
final class Candidate(val cap: Int, val mu: Double, memo: DistanceMemo) extends Serializable {

  private var slots = new Array[Int](math.min(cap, 64))
  private var n = 0

  /** Stored elements in insertion order (a fresh copy). */
  def elements: IndexedSeq[Element] = IndexedSeq.tabulate(n)(i => memo.element(slots(i)))

  def size: Int = n
  def isFull: Boolean = n >= cap

  /** `d(x, S_µ)`; +∞ when empty so the first element is always admitted. */
  def distTo(x: Element): Double = {
    memo.arrive(x)
    var best = Double.PositiveInfinity
    var i = 0
    while (i < n) {
      val d = memo.dist(slots(i))
      if (d < best) {
        best = d
        if (best < mu) return best // early exit: rejection already decided
      }
      i += 1
    }
    best
  }

  /** Attempt one streaming insertion; returns true iff x was stored. */
  def tryAdd(x: Element): Boolean = {
    if (isFull) false
    else if (distTo(x) >= mu) {
      if (n == slots.length) slots = java.util.Arrays.copyOf(slots, math.min(cap, 2 * n))
      slots(n) = memo.admit()
      n += 1
      true
    } else false
  }
}
