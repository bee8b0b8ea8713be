package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen

/** The µ-separated bounded candidate — the invariant everything rests on. */
class CandidateSpec extends AnyFunSuite {

  test("first element is always admitted (distance to empty set is +∞)") {
    val c = new Candidate(3, 5.0, new DistanceMemo(Euclidean))
    assert(c.tryAdd(Element(0, 0, Array(0.0, 0.0))))
    assert(c.size == 1)
  }

  test("admits iff distance ≥ µ and below capacity") {
    val c = new Candidate(2, 1.0, new DistanceMemo(Euclidean))
    assert(c.tryAdd(Element(0, 0, Array(0.0))))
    assert(!c.tryAdd(Element(1, 0, Array(0.5))), "0.5 < µ rejected")
    assert(c.tryAdd(Element(2, 0, Array(1.0))), "exactly µ admitted (≥)")
    assert(c.isFull)
    assert(!c.tryAdd(Element(3, 0, Array(10.0))), "full candidate rejects everything")
  }

  for (seed <- 1 to 10) {
    test(s"µ-separation invariant holds on a random stream (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val mu = 0.2 + rng.nextDouble() * 0.3
      val c = new Candidate(5, mu, new DistanceMemo(Euclidean))
      TestGen.randomElements(200, 1, 2, seed).foreach(c.tryAdd)
      val es = c.elements
      for (i <- es.indices; j <- i + 1 until es.length)
        assert(Euclidean.dist(es(i), es(j)) >= mu, s"pair ($i,$j) violates µ=$mu")
      assert(es.length <= 5)
    }
  }

  for (seed <- 1 to 5) {
    test(s"rejected elements are within µ of the candidate or arrived when full (seed $seed)") {
      val mu = 0.25
      val c = new Candidate(4, mu, new DistanceMemo(Euclidean))
      val xs = TestGen.randomElements(100, 1, 2, seed + 100)
      xs.foreach { x =>
        val wasFull = c.isFull
        val added = c.tryAdd(x)
        if (!added && !wasFull) assert(c.distTo(x) < mu)
      }
    }
  }

  test("distTo returns exact minimum when not early-exited") {
    val c = new Candidate(10, 0.0 + 1e-12, new DistanceMemo(Euclidean))
    val pts = Seq(Array(0.0, 0.0), Array(2.0, 0.0), Array(0.0, 3.0))
    pts.zipWithIndex.foreach { case (p, i) => c.tryAdd(Element(i.toLong, 0, p)) }
    val d = c.distTo(Element(9, 0, Array(1.0, 0.0)))
    assert(math.abs(d - 1.0) < 1e-12)
  }

  test("insertion order is preserved in elements") {
    val c = new Candidate(3, 1.0, new DistanceMemo(Euclidean))
    c.tryAdd(Element(5, 0, Array(0.0)))
    c.tryAdd(Element(3, 0, Array(10.0)))
    c.tryAdd(Element(8, 0, Array(20.0)))
    assert(c.elements.map(_.id) == IndexedSeq(5L, 3L, 8L))
  }
}
