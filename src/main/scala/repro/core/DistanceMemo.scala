package repro.core

import java.util.stream.IntStream

/** The stream phase's distance cache, shared by every candidate of one
  * [[CandidateBank]].
  *
  * An arrival gets a dense slot the first time any candidate admits it, and
  * candidates store slots: the slot, not the id, identifies a stored
  * element. Candidates are insert-only, so a slot is never recycled, and
  * `size` is the number of stored elements. For the current arrival x the memo keeps `d(x, element(slot))`
  * in an array indexed by slot and stamped with the arrival's epoch: the
  * blind and group candidates of every guess share one evaluation per stored
  * element. A miss calls `metric.dist(x, stored)`, arrival first, exactly as
  * an uncached scan does, so every admission is unchanged.
  */
final class DistanceMemo(val metric: Metric) extends Serializable {
  private var elems = new Array[Element](64)
  private var value = new Array[Double](64)
  private var stamp = new Array[Long](64) // epoch of value(slot); 0 = never
  private var slots = 0
  private var epoch = 0L
  private var cur: Element = _
  private var curSlot = -1
  private var misses = 0L

  /** Slots handed out so far. */
  def size: Int = slots

  /** The element held in `slot`. */
  def element(slot: Int): Element = elems(slot)

  /** Metric evaluations made so far: one per miss. */
  def evals: Long = misses

  /** Make `x` the current arrival; a no-op if it already is. */
  def arrive(x: Element): Unit =
    if (x ne cur) { cur = x; curSlot = -1; epoch += 1 }

  /** `d(x, element(slot))` for the current arrival x. */
  def dist(slot: Int): Double =
    if (stamp(slot) == epoch) value(slot)
    else {
      val d = metric.dist(cur, elems(slot))
      value(slot) = d
      stamp(slot) = epoch
      misses += 1
      d
    }

  /** The current arrival's slot, handed out on its first admission. */
  def admit(): Int = {
    if (curSlot < 0) {
      if (slots == elems.length) {
        elems = java.util.Arrays.copyOf(elems, 2 * slots)
        value = java.util.Arrays.copyOf(value, 2 * slots)
        stamp = java.util.Arrays.copyOf(stamp, 2 * slots)
      }
      elems(slots) = cur
      curSlot = slots
      slots += 1
    }
    curSlot
  }
}

/** Every post-processing distance of one `finish()`: a lazily filled,
  * symmetric table over the slots of a [[DistanceMemo]], read by slot with
  * [[at]], so each pair of stored elements is evaluated at most once.
  *
  * One triangle is stored, which is exact because [[Metric]] symmetry holds
  * bit for bit. An unfilled cell holds −1.0: a metric is nonnegative, and a
  * NaN distance is stored and served like any other value.
  */
final class PairTable(memo: DistanceMemo) {
  private val n = memo.size
  require(n.toLong * (n - 1) / 2 <= Int.MaxValue, s"$n stored elements are too many for one pair table")
  private val cells = new Array[Double](n * (n - 1) / 2)
  java.util.Arrays.fill(cells, -1.0)
  private var misses = 0L

  /** Metric evaluations made so far. */
  def evals: Long = misses

  /** Distance between the elements in slots i and j (the triangle has no
    * diagonal, so i = j is computed, not stored).
    */
  def at(i: Int, j: Int): Double = {
    if (i == j) { misses += 1; return memo.metric.dist(memo.element(i), memo.element(i)) }
    val c = if (i > j) i * (i - 1) / 2 + j else j * (j - 1) / 2 + i
    val v = cells(c)
    if (v != -1.0) v
    else {
      val d = memo.metric.dist(memo.element(i), memo.element(j))
      cells(c) = d
      misses += 1
      d
    }
  }

  /** Fill, on the common fork-join pool, every unfilled cell whose two slots
    * both lie in one of `sets` (arrays of slots). Each slot carries a bitmask
    * of the sets it is in, and a task fills whole rows (row i holds the cells
    * (i, j), j < i), so each cell has exactly one writer. Task t takes rows t
    * and n−1−t, n−1 cells in all. The new evaluations are counted in
    * [[evals]] as the sum of the per-row counts.
    */
  def fill(sets: IndexedSeq[Array[Int]]): Unit = {
    val words = (sets.length + 63) >>> 6
    val mask = new Array[Long](n * words)
    for (t <- sets.indices; s <- sets(t)) mask(s * words + (t >>> 6)) |= 1L << (t & 63)
    def shared(i: Int, j: Int): Boolean = {
      var w = 0
      while (w < words && (mask(i * words + w) & mask(j * words + w)) == 0L) w += 1
      w < words
    }
    def row(i: Int): Long = {
      if (!shared(i, i)) return 0L // slot i is in no set
      var filled = 0L
      val base = i * (i - 1) / 2
      var j = 0
      while (j < i) {
        if (cells(base + j) == -1.0 && shared(i, j)) {
          cells(base + j) = memo.metric.dist(memo.element(i), memo.element(j))
          filled += 1
        }
        j += 1
      }
      filled
    }
    misses += IntStream.range(0, (n + 1) / 2).parallel()
      .mapToLong(t => if (n - 1 - t == t) row(t) else row(t) + row(n - 1 - t))
      .sum()
  }
}
