package repro.core

/** Farthest-first traversal: the greedy rule of GMM [24], SFDM1's balancing
  * insertions and Algorithm 4's `V₁ ∩ V₂` phase. It keeps the live candidates
  * in their given order, each with d(x, S), which starts at +∞ and falls only
  * by `d < best` (so a NaN distance is ignored). `dist(x, y)` is read with x
  * a candidate and y a member of S, once per such pair.
  */
final class FarthestFirst(cands: Array[Int], dist: (Int, Int) => Double, key: Int => Long) {
  private val live = cands.clone()
  private val toS = Array.fill(live.length)(Double.PositiveInfinity)
  private var n = live.length

  def isEmpty: Boolean = n == 0

  /** `y` has joined S. */
  def add(y: Int): Unit = {
    var t = 0
    while (t < n) {
      val d = dist(live(t), y)
      if (d < toS(t)) toS(t) = d
      t += 1
    }
  }

  /** Drop the candidates `keep` refuses; the rest keep their order. */
  def retain(keep: Int => Boolean): Unit = {
    var w = 0
    for (t <- 0 until n if keep(live(t))) { live(w) = live(t); toS(w) = toS(t); w += 1 }
    n = w
  }

  /** Remove and return the candidate with the largest d(x, S) under
    * `java.lang.Double.compare`, ties going to the smaller key, then to the
    * earlier candidate. Throws a `NoSuchElementException` when none is left.
    */
  def pick(): Int = {
    if (n == 0) throw new NoSuchElementException("farthest-first: no candidate left")
    var b = 0
    var t = 1
    while (t < n) {
      val c = java.lang.Double.compare(toS(t), toS(b))
      if (c > 0 || (c == 0 && key(live(t)) < key(live(b)))) b = t
      t += 1
    }
    val p = live(b)
    System.arraycopy(live, b + 1, live, b, n - b - 1)
    System.arraycopy(toS, b + 1, toS, b, n - b - 1)
    n -= 1
    p
  }
}
