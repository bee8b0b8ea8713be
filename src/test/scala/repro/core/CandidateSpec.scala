package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen

/** The µ-separated bounded candidate — the invariant everything rests on —
  * as the one candidate of a one-guess [[Part]].
  */
class CandidateSpec extends AnyFunSuite {

  private def candidate(cap: Int, mu: Double, memo: DistanceMemo = new DistanceMemo(Euclidean)): Part =
    new Part(cap, Array(mu), memo)

  /** Offers `x`; true iff the candidate stored it. */
  private def tryAdd(c: Part, x: Element): Boolean = {
    val n = c.size(0)
    c.offer(x)
    c.size(0) > n
  }

  test("first element is always admitted (distance to empty set is +∞)") {
    val c = candidate(3, 5.0)
    assert(tryAdd(c, Element(0, 0, Array(0.0, 0.0))))
    assert(c.size(0) == 1)
  }

  test("admits iff distance ≥ µ and below capacity") {
    val c = candidate(2, 1.0)
    assert(tryAdd(c, Element(0, 0, Array(0.0))))
    assert(!tryAdd(c, Element(1, 0, Array(0.5))), "0.5 < µ rejected")
    assert(tryAdd(c, Element(2, 0, Array(1.0))), "exactly µ admitted (≥)")
    assert(c.isFull(0))
    assert(!tryAdd(c, Element(3, 0, Array(10.0))), "full candidate rejects everything")
  }

  for (seed <- 1 to 10) {
    test(s"µ-separation invariant holds on a random stream (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val mu = 0.2 + rng.nextDouble() * 0.3
      val memo = new DistanceMemo(Euclidean)
      val c = candidate(5, mu, memo)
      TestGen.randomElements(200, 1, 2, seed).foreach(tryAdd(c, _))
      val es = c.slots(0).map(memo.element)
      for (i <- es.indices; j <- i + 1 until es.length)
        assert(Euclidean.dist(es(i), es(j)) >= mu, s"pair ($i,$j) violates µ=$mu")
      assert(es.length <= 5)
    }
  }

  for (seed <- 1 to 5) {
    test(s"rejected elements are within µ of the candidate or arrived when full (seed $seed)") {
      val mu = 0.25
      val c = candidate(4, mu)
      val xs = TestGen.randomElements(100, 1, 2, seed + 100)
      xs.foreach { x =>
        val wasFull = c.isFull(0)
        val added = tryAdd(c, x)
        if (!added && !wasFull) assert(c.distTo(0, x) < mu)
      }
    }
  }

  test("distTo returns exact minimum when not early-exited") {
    val c = candidate(10, 0.0 + 1e-12)
    val pts = Seq(Array(0.0, 0.0), Array(2.0, 0.0), Array(0.0, 3.0))
    pts.zipWithIndex.foreach { case (p, i) => tryAdd(c, Element(i.toLong, 0, p)) }
    val d = c.distTo(0, Element(9, 0, Array(1.0, 0.0)))
    assert(math.abs(d - 1.0) < 1e-12)
  }

  test("insertion order is preserved in elements") {
    val memo = new DistanceMemo(Euclidean)
    val c = candidate(3, 1.0, memo)
    tryAdd(c, Element(5, 0, Array(0.0)))
    tryAdd(c, Element(3, 0, Array(10.0)))
    tryAdd(c, Element(8, 0, Array(20.0)))
    assert(c.slots(0).map(memo.element(_).id).toSeq == IndexedSeq(5L, 3L, 8L))
  }
}
