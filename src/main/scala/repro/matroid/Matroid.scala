package repro.matroid

import repro.core.Element
import scala.collection.mutable

/** A partition matroid: the ground set is split into parts and a set is
  * independent iff it holds at most `cap(part)` elements of each part.
  *
  * Both matroids of SFDM2 are instances: M₁ partitions by group with caps
  * k_i; M₂ partitions by cluster with caps 1.
  *
  * The parts are renumbered densely once, at construction, and everything is
  * kept by ground position, so [[MatroidIntersection]] runs on plain arrays.
  * The matroid axioms are property-tested against [[isIndependent]] in
  * `MatroidSpec`.
  *
  * @param ground ground set; element ids must be distinct
  * @param part   part label of each ground element, by position
  * @param cap    capacity of each part label
  */
final class PartitionMatroid(val ground: IndexedSeq[Element], part: Array[Int], cap: Int => Int) {
  require(part.length == ground.length, s"${part.length} part labels for ${ground.length} ground elements")

  private val n = ground.length
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

  private lazy val positionById: mutable.LongMap[Int] = {
    val m = mutable.LongMap.empty[Int]
    var i = 0
    while (i < n) { m(ground(i).id) = i; i += 1 }
    require(m.size == n, "ground element ids must be distinct")
    m
  }

  /** Ground position of an element id. */
  def positionOf(id: Long): Int = positionById(id)

  /** Is the set, of elements of the ground set, independent? */
  def isIndependent(s: Seq[Element]): Boolean =
    s.groupBy(e => partAt(positionOf(e.id))).forall { case (p, es) => es.size <= capOf(p) }
}
