package repro.core

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen

/** [[Acos]] against `StrictMath.acos` and `math.acos`, compared as raw bits:
  * the port must return the very same double, NaN payloads included.
  */
class AcosSpec extends AnyFunSuite {

  /** The inputs among `xs` on which the port, `StrictMath.acos` and
    * `math.acos` do not all give the same bits, as hex, at most ten.
    */
  private def mismatches(xs: Iterator[Double]): Seq[String] =
    xs.filter { x =>
      val want = doubleToRawLongBits(StrictMath.acos(x))
      doubleToRawLongBits(Acos(x)) != want || doubleToRawLongBits(math.acos(x)) != want
    }.take(10).map(x => f"${doubleToRawLongBits(x)}%016x").toSeq

  /** `n` doubles either side of the bit pattern `at` (same sign), `at` included. */
  private def walk(at: Long, n: Int): Iterator[Double] =
    (-n to n).iterator.map(i => longBitsToDouble(at + i))

  private val one = doubleToRawLongBits(1.0)
  private val half = doubleToRawLongBits(0.5)
  private val sign = Long.MinValue

  test("bit-identical on 10M seeded uniform inputs in [-1, 1]") {
    val rng = new java.util.SplittableRandom(20221019L)
    assert(mismatches(Iterator.fill(10000000)(rng.nextDouble(-1.0, 1.0))).isEmpty)
  }

  test("bit-identical on ulp walks across each branch boundary: ±0.5, the 2^-57 cut and ±1") {
    // |x| ≤ 2^-57 returns π/2 directly; the cut is on the high word, so the
    // first input past it is 0x3c600001_00000000.
    val cut = Seq(0x3c60000000000000L, 0x3c60000100000000L)
    val points = Seq(half, one) ++ cut
    for (p <- points; s <- Seq(0L, sign))
      assert(mismatches(walk(p | s, 200000)).isEmpty, f"walk around ${p | s}%016x")
  }

  test("bit-identical on special inputs: ±0, subnormals, NaN, ±1 ± 1 ulp and ±∞") {
    val specials = Seq(
      0.0, -0.0, java.lang.Double.MIN_VALUE, -java.lang.Double.MIN_VALUE,
      longBitsToDouble(0x000fffffffffffffL), -longBitsToDouble(0x000fffffffffffffL), java.lang.Double.MIN_NORMAL,
      Double.NaN, longBitsToDouble(0x7ff0000000000001L), longBitsToDouble(0xfff8000000000000L), longBitsToDouble(0x7ff8000000abcdefL),
      1.0, -1.0, math.nextUp(1.0), math.nextDown(1.0), math.nextUp(-1.0), math.nextDown(-1.0),
      Double.PositiveInfinity, Double.NegativeInfinity, Double.MaxValue, -Double.MaxValue,
    )
    assert(mismatches(specials.iterator).isEmpty)
  }

  test("Angular.dist equals math.acos of the clamped cosine on topic vectors whose cosines cross 0.5") {
    val xs = TestGen.lyricsLikeElements(120, 3, 50, 7L)
    val pairs = for (a <- xs; b <- xs if a.id < b.id) yield (a, b)
    val cos = pairs.map { case (a, b) => Element.dot(a.features, b.features) / math.sqrt(a.sqNorm * b.sqNorm) }
    assert(cos.exists(_ > 0.5) && cos.exists(_ < 0.5))
    val wrong = pairs.zip(cos).filterNot { case ((a, b), c) =>
      val want = doubleToRawLongBits(math.acos(math.max(-1.0, math.min(1.0, c))))
      doubleToRawLongBits(Angular.dist(a, b)) == want && doubleToRawLongBits(Angular.dist(a.features, b.features)) == want
    }
    assert(wrong.isEmpty, wrong.take(5).map { case ((a, b), _) => s"(${a.id}, ${b.id})" }.mkString(", "))
  }
}
