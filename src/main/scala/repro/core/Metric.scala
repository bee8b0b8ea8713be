package repro.core

/** The distance between two elements, as the diversity objective and the
  * post-processing routines read it: a [[Metric]], or a [[PairTable]] that
  * serves a metric's values for the stored elements from a cache.
  */
trait Distance {
  def apply(a: Element, b: Element): Double
}

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
sealed trait Metric extends Distance with Serializable {
  /** Distance between two feature vectors of equal length. */
  def dist(a: Array[Double], b: Array[Double]): Double

  /** Distance between two elements: the same double as
    * `dist(a.features, b.features)`, which a metric may compute faster from
    * what an [[Element]] caches. Each metric implements it itself, so the
    * hot call from the stream phase reaches the kernel in one dispatch.
    */
  def dist(a: Element, b: Element): Double

  final override def apply(a: Element, b: Element): Double = dist(a, b)

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
  * same double.
  */
case object Angular extends Metric {
  override def dist(a: Array[Double], b: Array[Double]): Double =
    angle(Element.dot(a, b), Element.dot(a, a), Element.dot(b, b))

  override def dist(a: Element, b: Element): Double =
    angle(Element.dot(a.features, b.features), a.sqNorm, b.sqNorm)

  private def angle(dot: Double, na: Double, nb: Double): Double =
    if (na == 0.0 || nb == 0.0) math.Pi / 2
    else math.acos(math.max(-1.0, math.min(1.0, dot / math.sqrt(na * nb))))

  override val name = "Angular"
}

object Metric {
  /** Lookup by the names used in dataset configs and job arguments. */
  def byName(s: String): Metric = s.toLowerCase match {
    case "euclidean" => Euclidean
    case "manhattan" => Manhattan
    case "angular"   => Angular
    case other       => throw new IllegalArgumentException(s"unknown metric: $other")
  }
}
