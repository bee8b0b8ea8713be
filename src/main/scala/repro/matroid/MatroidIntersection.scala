package repro.matroid

import repro.core.{Diversity, Distance, Element}
import scala.collection.mutable

/** Algorithm 4 — matroid intersection à la Cunningham [18], adapted as in the
  * paper: initialized from a partial common independent set instead of ∅, and
  * preceded by a GMM-style greedy phase that inserts elements of `V₁ ∩ V₂`
  * farthest-first (each such element is a length-2 augmenting path ⟨a,x,b⟩,
  * so greediness is free and buys diversity).
  *
  * The second phase runs the standard augmentation-graph loop (Definition 2):
  * BFS a shortest `a → b` path and toggle the membership of its interior.
  * Returns a maximum-cardinality set in `I₁ ∩ I₂` (verified against brute
  * force in tests).
  */
object MatroidIntersection {

  /** Augment `s0 ∈ I₁ ∩ I₂` to a maximum-cardinality common independent set.
    *
    * @param m1     first matroid (fairness), over ground set V
    * @param m2     second matroid (clusters), over the same V
    * @param dist   used only for the greedy farthest-first ordering
    * @param s0     initial common independent set
    */
  def augmentToMax(m1: Matroid, m2: Matroid, dist: Distance, s0: Seq[Element]): Vector[Element] = {
    val ground: IndexedSeq[Element] = m1.ground
    val byId: Map[Long, Element] = ground.map(e => e.id -> e).toMap
    val inS = mutable.LinkedHashSet.from(s0.map(_.id))

    def sElems: Vector[Element] = inS.iterator.map(byId).toVector

    // --- Phase 1: greedy farthest-first over V1 ∩ V2 (Lines 2–7). ---
    var v12 = ground.filter(e => !inS.contains(e.id) && m1.canAdd(inS, e) && m2.canAdd(inS, e))
    while (v12.nonEmpty) {
      val cur = sElems
      val pick = v12.maxBy(x => (Diversity.distToSet(x, cur, dist), -x.id))
      inS += pick.id
      v12 = v12.filter(e => e.id != pick.id && m1.canAdd(inS, e) && m2.canAdd(inS, e))
    }

    // --- Phase 2: Cunningham augmentation loop (Lines 8–14). ---
    var path = shortestAugmentingPath(m1, m2, ground, inS)
    while (path.nonEmpty) {
      path.foreach { id => if (inS.contains(id)) inS -= id else inS += id }
      path = shortestAugmentingPath(m1, m2, ground, inS)
    }
    sElems
  }

  /** BFS the augmentation graph of Definition 2 and return the interior of a
    * shortest `a → b` path (element ids, excluding the virtual a/b), or empty
    * if no augmenting path exists.
    */
  private def shortestAugmentingPath(
      m1: Matroid,
      m2: Matroid,
      ground: IndexedSeq[Element],
      inS: collection.Set[Long],
  ): List[Long] = {
    val n = ground.length
    val idx = ground.iterator.zipWithIndex.map { case (e, i) => e.id -> i }.toMap
    val A = n; val B = n + 1
    // Adjacency built eagerly — ground sets here are O(km), tiny.
    val adj = Array.fill(n + 1)(List.empty[Int]) // no edges out of B
    val outside = ground.filter(e => !inS.contains(e.id))
    val inside = ground.filter(e => inS.contains(e.id))
    for (x <- outside) {
      val xi = idx(x.id)
      if (m1.canAdd(inS, x)) adj(A) ::= xi
      else for (y <- inside if m1.canSwap(inS, x, y)) adj(idx(y.id)) ::= xi
      if (m2.canAdd(inS, x)) adj(xi) ::= B
      else for (y <- inside if m2.canSwap(inS, x, y)) adj(xi) ::= idx(y.id)
    }
    // BFS from A.
    val prev = Array.fill(n + 2)(-2) // -2 unvisited, -1 root
    prev(A) = -1
    val q = mutable.Queue(A)
    while (q.nonEmpty && prev(B) == -2) {
      val u = q.dequeue()
      if (u != B) {
        // Reverse for determinism: adjacency lists were built with ::.
        for (v <- adj(u).reverse if prev(v) == -2) { prev(v) = u; q += v }
      }
    }
    if (prev(B) == -2) Nil
    else {
      var cur = prev(B)
      var acc = List.empty[Long]
      while (cur != A) { acc ::= ground(cur).id; cur = prev(cur) }
      acc
    }
  }
}
