package repro.core

/** A distance metric on feature vectors: nonnegative, symmetric, and
  * satisfying the triangle inequality (all three are property-tested).
  *
  * Symmetry holds bit for bit: `dist(a, b)` and `dist(b, a)` are the same
  * double, NaN included. [[PairTable]] stores one triangle of the pair
  * distances and relies on this.
  *
  * The paper's experiments use Euclidean (Adult, Synthetic), Manhattan
  * (CelebA, Census), and Angular (Lyrics); every algorithm here is generic
  * over this trait, as in the paper.
  */
sealed trait Metric extends Serializable {
  /** Distance between two feature vectors of equal length. */
  def dist(a: Array[Double], b: Array[Double]): Double

  /** Distance between two elements: the same double as
    * `dist(a.features, b.features)`, which a metric may compute faster from
    * what an [[Element]] caches. Each metric implements it itself, so the
    * hot call from the stream phase reaches the kernel in one dispatch.
    */
  def dist(a: Element, b: Element): Double

  /** Short display name for tables and logs. */
  def name: String
}

/** L2 distance. */
case object Euclidean extends Metric {
  override def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
  override def dist(a: Element, b: Element): Double = dist(a.features, b.features)
  override val name = "Euclidean"
}

/** L1 distance. */
case object Manhattan extends Metric {
  override def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
    s
  }
  override def dist(a: Element, b: Element): Double = dist(a.features, b.features)
  override val name = "Manhattan"
}

/** Angular distance: `arccos(cos-similarity)`, the geodesic distance on the
  * unit sphere — a true metric (unlike cosine *dissimilarity*). The zero
  * vector is treated as orthogonal to everything (distance π/2), which keeps
  * the function total; generators never emit zero vectors.
  *
  * The element path makes one dot product and reads both squared norms from
  * [[Element.sqNorm]]. Every sum is [[Element.dot]]'s, so both paths give the
  * same double. The arc cosine is [[Acos]], which returns `StrictMath.acos`'s
  * double in a few nanoseconds.
  */
case object Angular extends Metric {
  override def dist(a: Array[Double], b: Array[Double]): Double =
    angle(Element.dot(a, b), Element.dot(a, a), Element.dot(b, b))

  override def dist(a: Element, b: Element): Double =
    angle(Element.dot(a.features, b.features), a.sqNorm, b.sqNorm)

  private def angle(dot: Double, na: Double, nb: Double): Double =
    if (na == 0.0 || nb == 0.0) math.Pi / 2
    else Acos(math.max(-1.0, math.min(1.0, dot / math.sqrt(na * nb))))

  override val name = "Angular"
}

/** Arc cosine that returns the same double as `StrictMath.acos` for every
  * input: a port of fdlibm's `__ieee754_acos` (e_acos.c), which JDK 17
  * calls natively for `StrictMath.acos` and `Math.acos`. On a 4 vCPU VM
  * under OpenJDK 17 that call took ~24 ns below |x| = 0.5 but ~570 ns from
  * there on, where the cosines of similar vectors fall; this port took
  * 7–17 ns on either side (`BENCH_acos.json`).
  *
  * The constants are fdlibm's bit patterns and the branches are fdlibm's,
  * including clearing the low word of `df`. The port is exact because every
  * step is the same IEEE 754 operation in the same order: the JVM evaluates
  * double arithmetic as written (no fused multiply-add, no reassociation),
  * and `math.sqrt` is correctly rounded, as is fdlibm's own sqrt.
  *
  * Ported from e_acos.c, which carries this notice:
  * {{{
  * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
  *
  * Developed at SunPro, a Sun Microsystems, Inc. business.
  * Permission to use, copy, modify, and distribute this
  * software is freely granted, provided that this notice
  * is preserved.
  * }}}
  */
private[core] object Acos {
  import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}

  private val pi = longBitsToDouble(0x400921fb54442d18L)
  private val pio2Hi = longBitsToDouble(0x3ff921fb54442d18L)
  private val pio2Lo = longBitsToDouble(0x3c91a62633145c07L)
  private val pS0 = longBitsToDouble(0x3fc5555555555555L)
  private val pS1 = longBitsToDouble(0xbfd4d61203eb6f7dL)
  private val pS2 = longBitsToDouble(0x3fc9c1550e884455L)
  private val pS3 = longBitsToDouble(0xbfa48228b5688f3bL)
  private val pS4 = longBitsToDouble(0x3f49efe07501b288L)
  private val pS5 = longBitsToDouble(0x3f023de10dfdf709L)
  private val qS1 = longBitsToDouble(0xc0033a271c8a2d4bL)
  private val qS2 = longBitsToDouble(0x40002ae59c598ac8L)
  private val qS3 = longBitsToDouble(0xbfe6066c1b8d0159L)
  private val qS4 = longBitsToDouble(0x3fb3b8c5b12e9282L)

  def apply(x: Double): Double = {
    val bits = doubleToRawLongBits(x)
    val hx = (bits >> 32).toInt
    val ix = hx & 0x7fffffff
    if (ix >= 0x3ff00000) { // |x| >= 1, or NaN
      if (((ix - 0x3ff00000) | bits.toInt) == 0) { if (hx > 0) 0.0 else pi + 2.0 * pio2Lo }
      else (x - x) / (x - x) // NaN
    } else if (ix < 0x3fe00000) { // |x| < 0.5
      if (ix <= 0x3c600000) pio2Hi + pio2Lo // |x| < 2^-57
      else pio2Hi - (x - (pio2Lo - x * r(x * x)))
    } else if (hx < 0) { // x <= -0.5
      val z = (1.0 + x) * 0.5
      val s = math.sqrt(z)
      pi - 2.0 * (s + (r(z) * s - pio2Lo))
    } else { // x >= 0.5
      val z = (1.0 - x) * 0.5
      val s = math.sqrt(z)
      val df = longBitsToDouble(doubleToRawLongBits(s) & 0xffffffff00000000L)
      val c = (z - df * df) / (s + df)
      2.0 * (df + (r(z) * s + c))
    }
  }

  /** fdlibm's rational approximation p(z)/q(z), as each branch evaluates it. */
  private def r(z: Double): Double = {
    val p = z * (pS0 + z * (pS1 + z * (pS2 + z * (pS3 + z * (pS4 + z * pS5)))))
    val q = 1.0 + z * (qS1 + z * (qS2 + z * (qS3 + z * qS4)))
    p / q
  }
}
