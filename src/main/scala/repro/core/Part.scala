package repro.core

/** The candidates of one part of a [[CandidateBank]] (its group-blind
  * candidates, or those of one group): one candidate `S_µ` per guess µ of the
  * ladder, held in flat arrays.
  *
  * A candidate is a bounded, insert-only µ-separated set. An arrival is
  * admitted iff the candidate is below capacity and its distance to every
  * stored element is at least µ (Lines 5–6 of Algorithm 1). The invariant
  * `div(S_µ) ≥ µ` therefore holds at all times, which Theorem 1 and Lemmas
  * 1–4 rely on. Candidate j keeps the [[DistanceMemo]] slots of its elements,
  * in insertion order, at `held(j·cap)` onwards, and reads distances through
  * the memo, which every part of a bank shares. A slot is a stored element's
  * identity, from its admission to the answer.
  *
  * [[offer]] reaches only the candidates an arrival can change. The part's
  * first arrival x₀ enters every candidate. After it, each candidate is one of:
  *  - full: it rejects everything;
  *  - dormant: it still holds only x₀, because µ > d(x₀, x) for every later
  *    arrival x. The guesses ascend, so the dormant candidates are a suffix
  *    `[lo, |U|)` of the ladder;
  *  - live: neither; `live` holds these in ascending guess order.
  *
  * An arrival is scanned against each live candidate. Then it reads
  * d(x, x₀) once and wakes the dormant candidates with µ ≤ d(x, x₀), which
  * admit it; a NaN distance wakes them all, as a scan admits on NaN. Each
  * candidate ends with the elements, and the memo with the evaluations, that
  * offering every arrival to every candidate gives (DESIGN.md, "Stream
  * phase").
  *
  * @param cap capacity of every candidate of the part
  * @param mus ascending guesses µ, one candidate each
  */
private[core] final class Part(val cap: Int, mus: Array[Double], memo: DistanceMemo) extends Serializable {
  require(mus.length.toLong * cap <= Int.MaxValue, s"${mus.length} candidates of capacity $cap are too many for one part")

  private val g = mus.length
  private val held = new Array[Int](g * cap)
  private val sizes = new Array[Int](g)
  private val live = new Array[Int](g)
  private var nLive = 0
  private var lo = g // the dormant suffix [lo, g); empty before the first arrival
  private var x0 = -1 // slot of the first arrival
  private var far = -1.0 // max d(x, x₀) over the arrivals that read it; −1 before one does
  private var offered = 0L
  private var startNs = 0L

  def mu(j: Int): Double = mus(j)
  def size(j: Int): Int = sizes(j)
  def isFull(j: Int): Boolean = sizes(j) >= cap

  /** Slots of candidate j's elements in insertion order (a fresh copy). */
  def slots(j: Int): Array[Int] = java.util.Arrays.copyOfRange(held, j * cap, j * cap + sizes(j))

  /** Candidates the arrivals were offered to: each candidate at the first
    * arrival, then each live candidate scanned and each dormant one woken.
    */
  def offers: Long = offered

  /** `System.nanoTime()` at the part's first arrival; 0 before it. It is read
    * on the first-arrival path that [[offer]] has anyway, so no arrival after
    * it reads the clock.
    */
  def firstArrivalNanos: Long = startNs

  /** At least two arrivals, all at distance 0 from x₀. Every arrival after
    * x₀ read d(x, x₀) while every candidate stayed dormant, so this is exact
    * then; a part whose candidates hold one element (`cap` = 1) never reads
    * it and reports false.
    */
  def coincident: Boolean = lo == 0 && far == 0.0

  /** `d(x, S_µ)` of candidate j, +∞ when it is empty; once the scan finds a
    * distance below µ, that distance (the rejection is decided).
    */
  def distTo(j: Int, x: Element): Double = {
    memo.arrive(x)
    nearest(j)
  }

  private def nearest(j: Int): Double = {
    val mu = mus(j)
    val b = j * cap
    val n = sizes(j)
    var best = Double.PositiveInfinity
    var i = 0
    while (i < n) {
      val d = memo.dist(held(b + i))
      if (d < best) {
        best = d
        if (best < mu) return best // early exit: rejection already decided
      }
      i += 1
    }
    best
  }

  /** Stores the current arrival in candidate j, which must have room, unless
    * the candidate already holds its slot. That happens only when the same
    * element arrives again before the memo meets another, so it keeps its
    * slot, and its distance to itself is NaN, which passes the µ test; no
    * other element can have been admitted since, so the slot is the last one.
    */
  def add(j: Int): Unit = {
    val b = j * cap
    val n = sizes(j)
    val s = memo.admit()
    if (n == 0 || held(b + n - 1) != s) {
      held(b + n) = s
      sizes(j) = n + 1
    }
  }

  /** Offers `x` to every candidate that it can change. The memo meets `x`
    * only if a candidate that is not full is offered it, as when every
    * candidate is offered every arrival: an element that arrives again
    * before the memo has met another keeps its distances and its slot.
    */
  def offer(x: Element): Unit = {
    if (x0 < 0) {
      memo.arrive(x)
      first()
    } else if (nLive > 0 || lo < g) {
      memo.arrive(x)
      scanLive()
      if (lo < g) wake()
    }
  }

  private def first(): Unit = {
    startNs = System.nanoTime()
    var j = 0
    while (j < g) { add(j); j += 1 }
    x0 = held(0)
    offered += g
    lo = if (cap > 1) 0 else g
  }

  /** Scans each live candidate and drops the ones that fill. */
  private def scanLive(): Unit = {
    var kept = 0
    var r = 0
    while (r < nLive) {
      val j = live(r)
      if (nearest(j) >= mus(j)) add(j)
      if (sizes(j) < cap) { live(kept) = j; kept += 1 }
      r += 1
    }
    offered += nLive
    nLive = kept
  }

  /** Wakes the dormant candidates with µ ≤ d(x, x₀), or all of them if it is
    * NaN. Each holds only x₀, so it admits x (unless x is x₀ again, see
    * [[add]]); it joins the end of `live`, above every live guess, unless x
    * filled it.
    */
  private def wake(): Unit = {
    val d = memo.dist(x0)
    if (d > far) far = d
    var j = lo
    while (j < g && !(d < mus(j))) {
      add(j)
      if (sizes(j) < cap) { live(nLive) = j; nLive += 1 }
      j += 1
    }
    offered += j - lo
    lo = j
  }
}
