package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, PropSupport, TestGen}

/** Guess-ladder construction and d_min/d_max bound estimation. */
class GuessLadderSpec extends AnyFunSuite with PropSupport {

  test("ladder starts at dmin, stays within [dmin, dmax], geometric with ratio 1/(1-ε)") {
    val u = GuessLadder(1.0, 100.0, 0.1)
    assert(u.head == 1.0)
    assert(u.forall(mu => mu >= 1.0 && mu <= 100.0))
    u.sliding(2).foreach { case Array(a, b) => assert(math.abs(b / a - 1 / 0.9) < 1e-9); case _ => }
  }

  test("ladder size matches O(logΔ/ε) closed form") {
    for (eps <- Seq(0.05, 0.1, 0.25); delta <- Seq(10.0, 1000.0)) {
      val u = GuessLadder(1.0, delta, eps)
      val expected = math.floor(math.log(delta) / -math.log(1 - eps)).toInt + 1
      assert(math.abs(u.length - expected) <= 1, s"eps=$eps delta=$delta got ${u.length} want ~$expected")
    }
  }

  test("degenerate ladder: dmin == dmax yields a single guess") {
    assert(GuessLadder(2.5, 2.5, 0.1).toSeq == Seq(2.5))
  }

  test("ladder rejects invalid parameters") {
    intercept[IllegalArgumentException](GuessLadder(0.0, 1.0, 0.1))
    intercept[IllegalArgumentException](GuessLadder(2.0, 1.0, 0.1))
    intercept[IllegalArgumentException](GuessLadder(1.0, 2.0, 0.0))
    intercept[IllegalArgumentException](GuessLadder(1.0, 2.0, 1.0))
  }

  test("every value in [dmin, dmax] has a ladder point within factor 1/(1-ε) below it") {
    val eps = 0.1
    val u = GuessLadder(0.5, 50.0, eps)
    trials(200) { rng =>
      val target = 0.5 + rng.nextDouble() * 49.5
      val below = u.filter(_ <= target)
      assert(below.nonEmpty && below.max >= target * (1 - eps) - 1e-12)
    }
  }

  test("DistanceBounds.exact brackets all pairwise distances") {
    trials(20) { rng =>
      val xs = TestGen.randomElements(12, 1, 3, rng.nextLong())
      val b = Oracle.exactBounds(xs, Euclidean)
      for (i <- xs.indices; j <- i + 1 until xs.length) {
        val d = Euclidean.dist(xs(i), xs(j))
        assert(d >= b.dmin - 1e-12 && d <= b.dmax + 1e-12)
      }
    }
  }

  test("DistanceBounds.estimate brackets the exact bounds (dmin ≤ exact.dmin·…, dmax ≥ exact.dmax)") {
    trials(20) { rng =>
      val xs = TestGen.randomElements(60, 1, 3, rng.nextLong())
      val exact = Oracle.exactBounds(xs, Euclidean)
      val est = DistanceBounds.estimate(xs, Euclidean, sampleSize = 60)
      assert(est.dmax >= exact.dmax - 1e-12, "pivot bound must dominate the true dmax")
      assert(est.dmin <= exact.dmin + 1e-12, "sampled dmin/2 must sit at or below the true dmin when the sample is exhaustive")
    }
  }

  test("DistanceBounds.estimate is deterministic") {
    val xs = TestGen.randomElements(100, 1, 4, 99)
    assert(DistanceBounds.estimate(xs, Manhattan) == DistanceBounds.estimate(xs, Manhattan))
  }

  /** The single-threaded scan `estimate` replaced, kept as the reference. */
  private def sequentialEstimate(xs: IndexedSeq[Element], metric: Metric, sampleSize: Int): DistanceBounds = {
    val pivot = xs.head
    var far = 0.0
    var i = 1
    while (i < xs.length) {
      val d = metric.dist(pivot, xs(i))
      if (d > far) far = d
      i += 1
    }
    require(far > 0, "degenerate dataset: all points coincide")
    val dmax = 2 * far
    val stride = math.max(1, xs.length / sampleSize)
    val sample = xs.indices.by(stride).map(xs).toIndexedSeq
    var mn = Double.PositiveInfinity
    i = 0
    while (i < sample.length) {
      var j = i + 1
      while (j < sample.length) {
        val d = metric.dist(sample(i), sample(j))
        if (d > 0 && d < mn) mn = d
        j += 1
      }
      i += 1
    }
    if (!mn.isFinite) mn = dmax / 1e6
    DistanceBounds(math.min(mn / 2, dmax), math.max(dmax, mn / 2))
  }

  test("DistanceBounds.estimate equals the sequential scan bit for bit") {
    val rng = new scala.util.Random(7)
    def reals(n: Int, dim: Int): IndexedSeq[Element] =
      IndexedSeq.tabulate(n)(i => Element(i.toLong, 0, Array.fill(dim)(rng.nextDouble() * 4 - 2)))
    // Few distinct points: most sampled pairs coincide (d = 0) and many tie.
    def lattice(n: Int): IndexedSeq[Element] =
      IndexedSeq.tabulate(n)(i => Element(i.toLong, 0, Array.fill(2)(rng.nextInt(3).toDouble - 1)))
    def withNaN(xs: IndexedSeq[Element], at: Int): IndexedSeq[Element] =
      xs.updated(at, Element(xs(at).id, 0, Array.fill(xs(at).features.length)(Double.NaN)))
    val cases = Seq(
      ("stride 2, even sample", reals(3500, 3), 1500),
      ("stride 2, odd sample", reals(3001, 5), 1500),
      ("stride 13", reals(700, 4), 50),
      ("stride 1", reals(301, 2), 1500),
      ("two elements", reals(2, 3), 1500),
      ("duplicate-heavy", lattice(4000), 1500),
      // Every row of the sample ends with a pair at the last sampled index.
      ("a NaN vector at the last sampled index", withNaN(reals(3200, 3), 3198), 1500),
    )
    for ((name, xs, sampleSize) <- cases; metric <- Seq(Euclidean, Manhattan, Angular)) {
      val got = DistanceBounds.estimate(xs, metric, sampleSize)
      val want = sequentialEstimate(xs, metric, sampleSize)
      val bits = (b: DistanceBounds) => (java.lang.Double.doubleToRawLongBits(b.dmin), java.lang.Double.doubleToRawLongBits(b.dmax))
      assert(bits(got) == bits(want), s"$name, ${metric.name}: $got vs $want")
    }
  }

  test("DistanceBounds rejects degenerate input") {
    intercept[IllegalArgumentException](DistanceBounds(0.0, 1.0))
    intercept[IllegalArgumentException](DistanceBounds(2.0, 1.0))
    val same = IndexedSeq(Element(0, 0, Array(1.0)), Element(1, 0, Array(1.0)))
    intercept[IllegalArgumentException](Oracle.exactBounds(same, Euclidean))
    val e = intercept[IllegalArgumentException](DistanceBounds.estimate(same, Euclidean))
    assert(e.getMessage.contains("all points coincide"), e.getMessage)
  }
}
