package repro.matroid

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.core.{Element, Euclidean, Manhattan, Metric}
import scala.collection.mutable

/** Algorithm 4 on part arrays and ground positions against the id-based
  * greedy phase and Cunningham loop it replaced: same ids, in the same order,
  * on seeded random pairs of partition matroids.
  */
class AugmentEquivalenceSpec extends AnyFunSuite {

  /** A partition matroid as the reference reads it: parts and caps by id. */
  private final class RefPartition(part: Long => Int, cap: Int => Int) {
    def canAdd(s: collection.Set[Long], x: Element): Boolean = {
      val p = part(x.id)
      s.count(part(_) == p) < cap(p)
    }
    /** S + x − y is independent when S + x is not: y shares x's part. */
    def exchangeable(x: Element, y: Element): Boolean = part(y.id) == part(x.id)
  }

  /** The replaced Algorithm 4: greedy farthest-first with `distToSet`
    * recomputed after every pick, then BFS over an explicit augmentation
    * graph until no path is left. Returns the ids and the number of paths.
    */
  private def reference(ground: IndexedSeq[Element], m1: RefPartition, m2: RefPartition,
                        dist: Metric, s0: Seq[Element]): (Vector[Long], Int) = {
    val byId: Map[Long, Element] = ground.map(e => e.id -> e).toMap
    val inS = mutable.LinkedHashSet.from(s0.map(_.id))
    def sElems: Vector[Element] = inS.iterator.map(byId).toVector
    var v12 = ground.filter(e => !inS.contains(e.id) && m1.canAdd(inS, e) && m2.canAdd(inS, e))
    while (v12.nonEmpty) {
      val cur = sElems
      val pick = v12.maxBy(x => (Oracle.distToSet(x, cur, dist), -x.id))
      inS += pick.id
      v12 = v12.filter(e => e.id != pick.id && m1.canAdd(inS, e) && m2.canAdd(inS, e))
    }
    var paths = 0
    var path = shortestPath(m1, m2, ground, inS)
    while (path.nonEmpty) {
      paths += 1
      path.foreach { id => if (inS.contains(id)) inS -= id else inS += id }
      path = shortestPath(m1, m2, ground, inS)
    }
    (sElems.map(_.id), paths)
  }

  private def shortestPath(m1: RefPartition, m2: RefPartition, ground: IndexedSeq[Element], inS: collection.Set[Long]): List[Long] = {
    val n = ground.length
    val idx = ground.iterator.zipWithIndex.map { case (e, i) => e.id -> i }.toMap
    val A = n; val B = n + 1
    val adj = Array.fill(n + 1)(List.empty[Int])
    val outside = ground.filter(e => !inS.contains(e.id))
    val inside = ground.filter(e => inS.contains(e.id))
    for (x <- outside) {
      val xi = idx(x.id)
      if (m1.canAdd(inS, x)) adj(A) ::= xi
      else for (y <- inside if m1.exchangeable(x, y)) adj(idx(y.id)) ::= xi
      if (m2.canAdd(inS, x)) adj(xi) ::= B
      else for (y <- inside if m2.exchangeable(x, y)) adj(xi) ::= idx(y.id)
    }
    val prev = Array.fill(n + 2)(-2)
    prev(A) = -1
    val q = mutable.Queue(A)
    while (q.nonEmpty && prev(B) == -2) {
      val u = q.dequeue()
      if (u != B) for (v <- adj(u).reverse if prev(v) == -2) { prev(v) = u; q += v }
    }
    if (prev(B) == -2) Nil
    else {
      var cur = prev(B)
      var acc = List.empty[Long]
      while (cur != A) { acc ::= ground(cur).id; cur = prev(cur) }
      acc
    }
  }

  private final class Outcome(val paths: Int, val skipped: Boolean)

  /** One random instance: real points, or integer-lattice points with many
    * equal and zero distances; ids shuffled so ground order is not id order.
    */
  private def check(seed: Int, lattice: Boolean): Outcome = {
    val rng = new scala.util.Random(seed)
    val n = 4 + rng.nextInt(30)
    val ids = rng.shuffle((0 until n).map(i => i.toLong * 3 + 1)).toIndexedSeq
    val ground = IndexedSeq.tabulate(n) { i =>
      val f = if (lattice) Array.fill(2)(rng.nextInt(4).toDouble) else Array.fill(2)(rng.nextDouble())
      Element(ids(i), 0, f)
    }
    val groups = 1 + rng.nextInt(4)
    val clusters = 1 + rng.nextInt(n)
    val part1 = Array.fill(n)(rng.nextInt(groups))
    val part2 = Array.fill(n)(rng.nextInt(clusters) * 7 - 3)
    val caps1 = IndexedSeq.fill(groups)(rng.nextInt(4))
    val cap2 = 1 + rng.nextInt(2)
    val byId1 = ids.zip(part1).toMap
    val byId2 = ids.zip(part2).toMap
    val r1 = new RefPartition(byId1, caps1)
    val r2 = new RefPartition(byId2, _ => cap2)
    // A random common independent start, built in a shuffled order.
    val start = mutable.LinkedHashSet.empty[Long]
    val want = rng.nextInt(4)
    rng.shuffle(ground).foreach { e =>
      if (start.size < want && r1.canAdd(start, e) && r2.canAdd(start, e)) start += e.id
    }
    val s0 = start.toVector.map(id => ground.find(_.id == id).get)
    val dist = if (rng.nextBoolean()) Euclidean else Manhattan

    val (refIds, paths) = reference(ground, r1, r2, dist, s0)
    val m1 = new PartitionMatroid(part1, caps1)
    val m2 = new PartitionMatroid(part2, _ => cap2)
    val got = MatroidIntersection.augmentToMax(m1, m2, (i, j) => dist.dist(ground(i), ground(j)), ground(_).id, s0.map(ground.indexOf))
      .map(ground(_).id).toVector
    assert(got == refIds, s"seed $seed (lattice=$lattice): $got vs reference $refIds")
    // The greedy phase alone yields the reference set minus its augmentations;
    // reaching the rank bound is what lets the new code skip the BFS.
    val greedySize = refIds.size - paths
    new Outcome(paths, greedySize == math.min(m1.rank, m2.rank))
  }

  for (lattice <- Seq(false, true)) {
    val kind = if (lattice) "integer-lattice points with ties" else "random real points"
    test(s"augmentToMax returns the reference ids in order: $kind") {
      val outcomes = (1 to 400).map(seed => check(seed, lattice))
      // Both sides of the rank skip run, and the BFS really augments.
      assert(outcomes.exists(_.skipped), "no instance reached the rank in the greedy phase")
      assert(outcomes.exists(o => !o.skipped && o.paths > 0), "no instance had an augmenting path")
      assert(outcomes.exists(o => !o.skipped && o.paths == 0), "no instance ran the BFS without finding a path")
      assert(outcomes.forall(o => !(o.skipped && o.paths > 0)), "an augmenting path existed above the rank bound")
    }
  }
}
