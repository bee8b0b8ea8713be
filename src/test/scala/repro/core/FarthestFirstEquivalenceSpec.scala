package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.GMM
import scala.collection.mutable

/** GMM and the SFDM1/FairSwap balance on [[FarthestFirst]] against the loops
  * they replaced: the same handles, in the same order, on seeded instances
  * with lattice ties, repeated ids and NaN distances.
  */
class FarthestFirstEquivalenceSpec extends AnyFunSuite {

  /** The replaced `GMM.picks`: one distance array over all n positions,
    * updated and scanned once per pick.
    */
  private def referencePicks(xs: IndexedSeq[Element], k: Int, metric: Metric): Vector[Int] = {
    val n = xs.length
    val dist = Array.fill(n)(Double.PositiveInfinity)
    val sol = Vector.newBuilder[Int]
    var last = 0
    sol += last
    dist(last) = Double.NegativeInfinity
    var picked = 1
    while (picked < k) {
      var bestIdx = -1
      var bestDist = Double.NegativeInfinity
      var i = 0
      while (i < n) {
        val d = metric.dist(xs(i), xs(last))
        if (d < dist(i)) dist(i) = d
        if (dist(i) > bestDist) { bestDist = dist(i); bestIdx = i }
        i += 1
      }
      last = bestIdx
      sol += last
      dist(last) = Double.NegativeInfinity
      picked += 1
    }
    sol.result()
  }

  /** The replaced `SFDM1.balance`: d(x, set) recomputed for every pool
    * element after every insertion and for every candidate victim after
    * every deletion.
    */
  private def referenceBalance(s0: Iterable[Int], pool: Iterable[Int], ks: IndexedSeq[Int], elem: Int => Element, dist: (Int, Int) => Double): Array[Int] = {
    val s = mutable.ArrayBuffer.from(s0)
    def toSet(x: Int, set: Iterable[Int]): Double = set.foldLeft(Double.PositiveInfinity) { (best, y) =>
      val d = dist(x, y)
      if (d < best) d else best
    }
    ks.indices.find(i => s.count(elem(_).group == i) < ks(i)) match {
      case None => s.toArray
      case Some(iu) =>
        val poolLeft = mutable.ArrayBuffer.from(pool.filter(x => elem(x).group == iu && !s.contains(x)))
        while (s.count(elem(_).group == iu) < ks(iu)) {
          val inGroup = s.filter(elem(_).group == iu)
          val pick = poolLeft.maxBy(x => (toSet(x, inGroup), -elem(x).id))
          s += pick
          poolLeft -= pick
        }
        val inGroupU = s.filter(elem(_).group == iu)
        while (s.length > ks.sum) {
          val victim = s.filter(elem(_).group != iu).minBy(x => (toSet(x, inGroupU), elem(x).id))
          s -= victim
        }
        s.toArray
    }
  }

  private sealed trait Kind
  private case object Real extends Kind
  private case object Lattice extends Kind
  private case object RepeatedIds extends Kind
  private case object AngularNaN extends Kind
  private val kinds = Seq(Real, Lattice, RepeatedIds, AngularNaN)

  /** Elements in two groups, and the metric to use on them:
    *  - Real: uniform points, Euclidean or Manhattan;
    *  - Lattice: points on {0..3}², many equal and zero distances;
    *  - RepeatedIds: lattice points whose ids repeat, so an id tie is no
    *    tie between handles;
    *  - AngularNaN: Angular, where about a third of the points have entries
    *    of 1e200, whose squares overflow, so distances among them are NaN.
    */
  private def instance(kind: Kind, rng: scala.util.Random): (IndexedSeq[Element], Metric) = {
    val n = 2 + rng.nextInt(30)
    val ids = rng.shuffle((0 until n).map(i => i.toLong * 5 + 2)).toIndexedSeq
    def point(): Array[Double] = kind match {
      case Real        => Array.fill(2)(rng.nextDouble())
      case AngularNaN  =>
        val scale = if (rng.nextInt(3) == 0) 1e200 else 1.0
        Array.fill(3)((rng.nextInt(5) - 2 + rng.nextDouble()) * scale)
      case _           => Array.fill(2)(rng.nextInt(4).toDouble)
    }
    val xs = IndexedSeq.tabulate(n) { i =>
      val id = if (kind == RepeatedIds) ids(i) % 3 else ids(i)
      Element(id, rng.nextInt(2), point())
    }
    val metric = kind match {
      case AngularNaN => Angular
      case _          => if (rng.nextBoolean()) Euclidean else Manhattan
    }
    (xs, metric)
  }

  private def hasNaN(xs: IndexedSeq[Element], metric: Metric): Boolean =
    xs.exists(a => xs.exists(b => metric.dist(a, b).isNaN))

  for (kind <- kinds) {
    test(s"GMM.picks returns the reference positions in order: $kind") {
      var sawNaN = false
      for (seed <- 1 to 400) {
        val rng = new scala.util.Random(seed)
        val (xs, metric) = instance(kind, rng)
        val k = 1 + rng.nextInt(xs.length)
        val got = GMM.picks(xs, k, metric)
        val want = referencePicks(xs, k, metric)
        assert(got == want, s"seed $seed: $got vs reference $want")
        sawNaN ||= hasNaN(xs, metric)
      }
      if (kind == AngularNaN) assert(sawNaN, "no instance had a NaN distance")
    }
  }

  for (kind <- kinds) {
    test(s"SFDM1.balance returns the reference handles in order: $kind") {
      var (swapped, untouched, sawNaN) = (0, 0, false)
      for (seed <- 1 to 400) {
        val rng = new scala.util.Random(seed + 10000)
        val (xs, metric) = instance(kind, rng)
        val n = xs.length
        val sizes = Seq(0, 1).map(g => xs.count(_.group == g))
        // Quotas the whole input can meet; s0 holds k handles, as GMM's
        // picks and an eligible guess's blind candidate do.
        val k = 1 + rng.nextInt(n)
        val k0 = math.max(k - sizes(1), 0) + rng.nextInt(math.min(k, sizes(0)) - math.max(k - sizes(1), 0) + 1)
        val ks = IndexedSeq(k0, k - k0)
        val s0 = rng.shuffle((0 until n).toVector).take(k)
        // The pool: s0 and every other handle, shuffled; a balanced s0 needs none.
        val pool = s0 ++ rng.shuffle((0 until n).filterNot(s0.contains).toVector)
        val dist = (i: Int, j: Int) => metric.dist(xs(i), xs(j))
        val got = SFDM1.balance(s0, pool, ks, xs, dist).toVector
        val want = referenceBalance(s0, pool, ks, xs, dist).toVector
        assert(got == want, s"seed $seed, ks $ks, s0 $s0: $got vs reference $want")
        if (got == s0) untouched += 1 else swapped += 1
        sawNaN ||= hasNaN(xs, metric)
      }
      assert(swapped > 50 && untouched > 0, s"$swapped swapped, $untouched untouched")
      if (kind == AngularNaN) assert(sawNaN, "no instance had a NaN distance")
    }
  }

  test("balance with an exhausted pool throws, as the reference does") {
    val xs = IndexedSeq(
      Element(1, 0, Array(0.0)), Element(2, 0, Array(1.0)), Element(3, 0, Array(2.0)), Element(4, 1, Array(3.0)))
    val dist = (i: Int, j: Int) => Euclidean.dist(xs(i), xs(j))
    // Group 1 needs two handles and the pool offers one that is not in s.
    for (pool <- Seq(Seq(0, 1, 2, 3), Seq(3), Seq.empty[Int])) {
      intercept[NoSuchElementException](SFDM1.balance(Seq(0, 1, 2), pool, IndexedSeq(1, 2), xs, dist))
      intercept[UnsupportedOperationException](referenceBalance(Seq(0, 1, 2), pool, IndexedSeq(1, 2), xs, dist))
    }
  }
}
