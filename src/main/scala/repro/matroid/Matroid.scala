package repro.matroid

import scala.collection.mutable

/** A partition matroid over the ground positions `0 until size`: the ground
  * set is split into parts and a set is independent iff it holds at most
  * `cap(part)` positions of each part.
  *
  * Both matroids of SFDM2 are instances: M₁ partitions by group with caps
  * k_i; M₂ partitions by cluster with caps 1.
  *
  * The parts are renumbered densely once, at construction, and everything is
  * kept by ground position, so [[MatroidIntersection]] runs on plain arrays.
  * The matroid axioms are property-tested in `MatroidSpec`.
  *
  * @param part part label of each ground position
  * @param cap  capacity of each part label
  */
final class PartitionMatroid(part: Array[Int], cap: Int => Int) {
  private val n = part.length

  /** Number of ground positions. */
  def size: Int = n

  // Positions sorted by (label, position): each part is one run of `members`,
  // in ground order.
  private[matroid] val members: Array[Int] = {
    val key = Array.tabulate(n)(i => (part(i).toLong << 32) | i)
    java.util.Arrays.sort(key)
    key.map(_.toInt)
  }
  /** Dense part index of each ground position. */
  private[matroid] val partAt = new Array[Int](n)
  /** `members(start(p) until start(p + 1))` are the positions of dense part p. */
  private[matroid] val start: Array[Int] = {
    val b = mutable.ArrayBuilder.make[Int]
    var p = -1
    var t = 0
    while (t < n) {
      if (t == 0 || part(members(t)) != part(members(t - 1))) { p += 1; b += t }
      partAt(members(t)) = p
      t += 1
    }
    b += n
    b.result()
  }
  /** Number of parts with at least one ground element. */
  private[matroid] val parts: Int = start.length - 1
  /** Capacity of each dense part; a negative capacity acts as 0. */
  private[matroid] val capOf: Array[Int] = Array.tabulate(parts)(p => math.max(0, cap(part(members(start(p))))))

  /** The rank `Σ_p min(cap(p), |V ∩ p|)`: no independent set is larger. */
  val rank: Int = (0 until parts).map(p => math.min(capOf(p), start(p + 1) - start(p))).sum
}
