package repro.matroid

import repro.core.FarthestFirst
import scala.collection.mutable

/** Algorithm 4 — matroid intersection à la Cunningham [18], adapted as in the
  * paper: initialized from a partial common independent set instead of ∅, and
  * preceded by a greedy phase that inserts elements of `V₁ ∩ V₂` by a
  * [[FarthestFirst]] traversal (each such element is a length-2 augmenting
  * path ⟨a,x,b⟩, so greediness is free and buys diversity).
  *
  * The second phase runs the standard augmentation-graph loop (Definition 2):
  * BFS a shortest `a → b` path and toggle the membership of its interior.
  * It is skipped when |S| already equals `min(rank(M₁), rank(M₂))`, since then
  * no augmenting path exists. Returns a maximum-cardinality set in `I₁ ∩ I₂`
  * (verified against brute force in tests).
  */
object MatroidIntersection {

  /** Augment `s0 ∈ I₁ ∩ I₂` to a maximum-cardinality common independent set.
    * Everything is a ground position. The result lists `s0`, then the greedy
    * picks, in insertion order; each augmentation drops the positions it
    * removes and appends those it adds.
    *
    * @param m1     first matroid (fairness), over the ground positions V
    * @param m2     second matroid (clusters), over the same V
    * @param dist   distance between positions, used only for the greedy
    *               farthest-first ordering
    * @param id     id of the element at a position, for the greedy's ties
    * @param s0     initial common independent set
    */
  def augmentToMax(m1: PartitionMatroid, m2: PartitionMatroid, dist: (Int, Int) => Double, id: Int => Long, s0: Seq[Int]): Array[Int] = {
    val n = m1.size
    require(m2.size == n, "the two matroids must share one ground set")
    val s = new Members(m1, m2)
    s0.foreach(s.add)
    require(s.independent, "the initial set must be common independent")

    // --- Phase 1: greedy farthest-first over V1 ∩ V2 (Lines 2–7). Counts
    // only grow in this phase, so a candidate a matroid refuses never returns. ---
    val ff = new FarthestFirst(Array.range(0, n).filter(i => !s.contains(i) && s.canAdd(i)), dist, id)
    s.order.foreach(ff.add)
    while (!ff.isEmpty) {
      val pick = ff.pick()
      s.add(pick)
      ff.retain(s.canAdd)
      ff.add(pick)
    }

    // --- Phase 2: Cunningham augmentation loop (Lines 8–14). ---
    if (s.order.length < math.min(m1.rank, m2.rank)) {
      var path = shortestAugmentingPath(s)
      while (path.nonEmpty) {
        path.foreach(i => if (s.contains(i)) s.remove(i) else s.add(i))
        path = shortestAugmentingPath(s)
      }
    }
    s.order.toArray
  }

  /** The current set S by ground position, in insertion order, with its
    * count in every part of both matroids.
    */
  private final class Members(val m1: PartitionMatroid, val m2: PartitionMatroid) {
    private val in = new Array[Boolean](m1.size)
    val c1 = new Array[Int](m1.parts)
    val c2 = new Array[Int](m2.parts)
    val order = mutable.ArrayBuffer.empty[Int]

    def contains(i: Int): Boolean = in(i)
    def add(i: Int): Unit = if (!in(i)) {
      in(i) = true; order += i; c1(m1.partAt(i)) += 1; c2(m2.partAt(i)) += 1
    }
    def remove(i: Int): Unit = {
      in(i) = false; order -= i; c1(m1.partAt(i)) -= 1; c2(m2.partAt(i)) -= 1
    }
    def fits1(i: Int): Boolean = c1(m1.partAt(i)) < m1.capOf(m1.partAt(i))
    def fits2(i: Int): Boolean = c2(m2.partAt(i)) < m2.capOf(m2.partAt(i))
    def canAdd(i: Int): Boolean = fits1(i) && fits2(i)
    def independent: Boolean =
      c1.indices.forall(p => c1(p) <= m1.capOf(p)) && c2.indices.forall(p => c2(p) <= m2.capOf(p))
  }

  /** BFS the augmentation graph of Definition 2 and return the interior of a
    * shortest `a → b` path (ground positions, excluding the virtual a/b), or
    * empty if no augmenting path exists.
    *
    * The graph is never built. For partition matroids its edges are:
    * a → x for x ∉ S that M₁ accepts; x → b for x ∉ S that M₂ accepts;
    * otherwise x → y for each y ∈ S in x's M₂ part; and y → x for y ∈ S and
    * each x ∉ S in y's M₁ part when that part is full. Neighbours are visited
    * in ground order, so the path is the one an explicit adjacency list in
    * ground order yields.
    */
  private def shortestAugmentingPath(s: Members): List[Int] = {
    val (m1, m2) = (s.m1, s.m2)
    val n = m1.size
    val prev = Array.fill(n)(-2) // -2 unvisited, -1 reached from a
    val queue = new Array[Int](n)
    var head = 0
    var tail = 0
    def visit(v: Int, u: Int): Unit = if (prev(v) == -2) { prev(v) = u; queue(tail) = v; tail += 1 }
    var i = 0
    while (i < n) { if (!s.contains(i) && s.fits1(i)) visit(i, -1); i += 1 }
    while (head < tail) {
      val u = queue(head)
      head += 1
      if (!s.contains(u)) {
        if (s.fits2(u)) {
          var acc = List.empty[Int]
          var cur = u
          while (cur != -1) { acc ::= cur; cur = prev(cur) }
          return acc
        }
        val q = m2.partAt(u)
        var t = m2.start(q)
        while (t < m2.start(q + 1)) { val y = m2.members(t); if (s.contains(y)) visit(y, u); t += 1 }
      } else {
        val p = m1.partAt(u)
        if (s.c1(p) >= m1.capOf(p)) {
          var t = m1.start(p)
          while (t < m1.start(p + 1)) { val x = m1.members(t); if (!s.contains(x)) visit(x, u); t += 1 }
        }
      }
    }
    Nil
  }
}
