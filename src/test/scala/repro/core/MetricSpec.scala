package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

/** Metric-space axioms and known values for all three metrics. */
class MetricSpec extends AnyFunSuite with PropSupport {

  private val metrics = Seq(Euclidean, Manhattan, Angular)

  /** Pad to a common dim and keep vectors nonzero (Angular's domain). */
  private def pair(a0: Array[Double], b0: Array[Double]): (Array[Double], Array[Double]) = {
    val d = math.max(a0.length, b0.length)
    def fix(v: Array[Double]) = { val p = v.padTo(d, 0.1); if (p.forall(_ == 0.0)) p.map(_ + 0.5) else p }
    (fix(a0), fix(b0))
  }

  /** Entries spread over 17 decades, so a sum of squares taken in another
    * order is usually a different double.
    */
  private val spreadVec: Gen[Array[Double]] = Gen.choose(3, 40).flatMap { d =>
    Gen.containerOfN[Array, Double](d, Gen.zip(Gen.choose(-1.0, 1.0), Gen.choose(-8, 8)).map { case (u, e) => u * math.pow(10, e) })
  }

  for (metric <- metrics) {
    test(s"${metric.name}: the element path and the array path give the same double") {
      // zero = 1 or 2 makes a or b the zero vector, Angular's π/2 case.
      checkProp(Prop.forAll(spreadVec, spreadVec, Gen.choose(0, 2)) { (a0, b0, zero) =>
        val d = math.max(a0.length, b0.length)
        val a = if (zero == 1) Array.fill(d)(0.0) else a0.padTo(d, 0.0)
        val b = if (zero == 2) Array.fill(d)(0.0) else b0.padTo(d, 0.0)
        val (ea, eb) = (Element(1, 0, a), Element(2, 1, b))
        val first = metric.dist(ea, eb)
        // Elements built after a first dist call, over copies of the vectors.
        val (ea2, eb2) = (Element(1, 0, a.clone()), Element(2, 1, b.clone()))
        val want = metric.dist(a, b)
        Seq(first, metric.dist(ea, eb), metric.dist(ea2, eb2), metric.dist(ea2, eb))
          .forall(java.lang.Double.compare(_, want) == 0) &&
          java.lang.Double.compare(metric.dist(eb, ea), metric.dist(b, a)) == 0
      }, minSuccessful = 500)
    }

    test(s"${metric.name}: identity — d(x,x) = 0") {
      checkProp(Prop.forAll(vecGen()) { a0 =>
        val (a, _) = pair(a0, a0)
        math.abs(metric.dist(a, a)) <= 1e-9
      })
    }

    test(s"${metric.name}: nonnegativity") {
      checkProp(Prop.forAll(vecGen(), vecGen()) { (a0, b0) =>
        val (a, b) = pair(a0, b0)
        metric.dist(a, b) >= 0.0
      })
    }

    test(s"${metric.name}: symmetry") {
      checkProp(Prop.forAll(vecGen(), vecGen()) { (a0, b0) =>
        val (a, b) = pair(a0, b0)
        math.abs(metric.dist(a, b) - metric.dist(b, a)) <= 1e-9
      })
    }

    test(s"${metric.name}: bitwise symmetry — d(a,b) and d(b,a) are the same double") {
      // Padding with zeros (not pair()) keeps zero vectors, Angular's π/2 case.
      checkProp(Prop.forAll(vecGen(), vecGen(), Gen.oneOf(false, true)) { (a0, b0, zero) =>
        val d = math.max(a0.length, b0.length)
        val a = if (zero) Array.fill(d)(0.0) else a0.padTo(d, 0.0)
        val b = b0.padTo(d, 0.0)
        java.lang.Double.compare(metric.dist(a, b), metric.dist(b, a)) == 0
      })
    }

    test(s"${metric.name}: triangle inequality") {
      checkProp(Prop.forAll(vecGen(), vecGen(), vecGen()) { (a0, b0, c0) =>
        val d = a0.length max b0.length max c0.length
        val (a, b) = pair(a0.padTo(d, 0.0), b0.padTo(d, 0.0))
        val (c, _) = pair(c0.padTo(d, 0.0), c0.padTo(d, 0.0))
        metric.dist(a, c) <= metric.dist(a, b) + metric.dist(b, c) + 1e-9
      })
    }

    test(s"${metric.name}: distance positive for distinct points") {
      trials(50) { rng =>
        val a = Array.fill(4)(rng.nextDouble())
        val b = a.clone(); b(0) += 1.0 + rng.nextDouble()
        assert(metric.dist(a, b) > 0.0)
      }
    }
  }

  test("Euclidean: known value — 3-4-5 triangle") {
    assert(math.abs(Euclidean.dist(Array(0.0, 0.0), Array(3.0, 4.0)) - 5.0) < 1e-12)
  }

  test("Manhattan: known value") {
    assert(math.abs(Manhattan.dist(Array(1.0, 2.0, 3.0), Array(4.0, 0.0, 3.5)) - 5.5) < 1e-12)
  }

  test("Manhattan dominates Euclidean") {
    trials(100) { rng =>
      val a = Array.fill(5)(rng.nextDouble() * 10 - 5)
      val b = Array.fill(5)(rng.nextDouble() * 10 - 5)
      assert(Manhattan.dist(a, b) >= Euclidean.dist(a, b) - 1e-9)
    }
  }

  test("Angular: orthogonal vectors are π/2 apart") {
    assert(math.abs(Angular.dist(Array(1.0, 0.0), Array(0.0, 2.0)) - math.Pi / 2) < 1e-9)
  }

  test("Angular: parallel vectors are 0 apart regardless of norm") {
    assert(math.abs(Angular.dist(Array(1.0, 1.0), Array(5.0, 5.0))) < 1e-9)
  }

  test("Angular: antiparallel vectors are π apart") {
    assert(math.abs(Angular.dist(Array(1.0, 0.0), Array(-3.0, 0.0)) - math.Pi) < 1e-9)
  }

  test("Angular: zero vector treated as orthogonal (total function)") {
    assert(math.abs(Angular.dist(Array(0.0, 0.0), Array(1.0, 1.0)) - math.Pi / 2) < 1e-12)
  }

  test("Angular: scale invariance") {
    trials(100) { rng =>
      val a = Array.fill(6)(rng.nextDouble() + 0.01)
      val b = Array.fill(6)(rng.nextDouble() + 0.01)
      val s = rng.nextDouble() * 9 + 0.5
      assert(math.abs(Angular.dist(a, b) - Angular.dist(a.map(_ * s), b)) < 1e-9)
    }
  }

  test("Element equality is by id (feature arrays ignored)") {
    val a = Element(1, 0, Array(1.0))
    val b = Element(1, 1, Array(2.0))
    val c = Element(2, 0, Array(1.0))
    assert(a == b && a != c && a.hashCode == b.hashCode)
  }

  test("Element toString truncates long feature vectors") {
    val e = Element(7, 2, Array.fill(10)(1.0))
    assert(e.toString.contains("…") && e.toString.contains("g2"))
  }
}
