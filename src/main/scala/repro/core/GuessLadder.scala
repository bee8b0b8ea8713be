package repro.core

import java.util.stream.IntStream

/** The geometric guess ladder `U = { d_min/(1-ε)^j : j ≥ 0 } ∩ [d_min, d_max]`
  * used by Algorithms 1–3 to guess OPT within relative error 1-ε, plus the
  * distance-bound estimation the paper leaves implicit.
  */
object GuessLadder {

  /** Safety cap on |U|; `log Δ / ε` stays far below this for any sane input,
    * so hitting it indicates corrupt bounds (dmin ≈ 0).
    */
  val MaxGuesses = 100000

  /** Ascending guesses in `[dmin, dmax]`. */
  def apply(dmin: Double, dmax: Double, eps: Double): Array[Double] = {
    require(dmin > 0, s"dmin must be positive, got $dmin")
    require(dmax >= dmin, s"dmax ($dmax) < dmin ($dmin)")
    require(eps > 0 && eps < 1, s"eps must be in (0,1), got $eps")
    val buf = Array.newBuilder[Double]
    var mu = dmin
    var j = 0
    while (mu <= dmax && j < MaxGuesses) {
      buf += mu
      j += 1
      mu = dmin / math.pow(1 - eps, j)
    }
    val out = buf.result()
    require(out.length < MaxGuesses, s"guess ladder overflow: dmin=$dmin dmax=$dmax eps=$eps")
    out
  }
}

/** Bounds `[d_min, d_max]` on pairwise distances.
  *
  * The paper treats them as known per dataset; here they are estimated from
  * the data (a substitution documented in DESIGN.md):
  *  - `d_max`: `2 · max_x d(x, x_0)` for an arbitrary pivot `x_0` is an upper
  *    bound by the triangle inequality (and ≥ the true max/2, so the ladder
  *    top is within one doubling of OPT).
  *  - `d_min`: minimum pairwise distance over a deterministic sample. This is
  *    an *upper* bound on the true d_min, but the ladder only needs its floor
  *    to sit at or below OPT_f, which the minimum over ~10^6 sampled pairs
  *    does in practice; a final /2 margin is applied for safety.
  */
final case class DistanceBounds(dmin: Double, dmax: Double) {
  require(dmin > 0 && dmax >= dmin, s"bad bounds: [$dmin, $dmax]")
}

object DistanceBounds {

  /** Estimated bounds: pivot-based d_max upper bound and sampled d_min with a
    * /2 safety margin (see class doc). Deterministic in the input order.
    *
    * Both scans run on the JVM's common fork-join pool. Each part keeps the
    * sequential loop's test (`d > far`, `d > 0 && d < mn`) and the parts are
    * combined with the same test. A maximum or a minimum of the values that
    * pass it does not depend on the order they are met in, and NaN never
    * passes, so the result is the sequential scan's, bit for bit.
    */
  def estimate(xs: IndexedSeq[Element], metric: Metric, sampleSize: Int = 1500): DistanceBounds = {
    require(xs.length >= 2, "need at least two elements")
    val pivot = xs.head
    val far = IntStream.range(1, xs.length).parallel()
      .mapToDouble(i => metric.dist(pivot, xs(i)))
      .reduce(0.0, (far, d) => if (d > far) d else far)
    require(far > 0, "degenerate dataset: all points coincide")
    val dmax = 2 * far
    // Deterministic stride sample.
    val stride = math.max(1, xs.length / sampleSize)
    val sample = Array.tabulate((xs.length + stride - 1) / stride)(i => xs(i * stride))
    val s = sample.length
    def rowMin(i: Int, mn0: Double): Double = {
      var mn = mn0
      var j = i + 1
      while (j < s) {
        val d = metric.dist(sample(i), sample(j))
        if (d > 0 && d < mn) mn = d
        j += 1
      }
      mn
    }
    // Row i holds s-1-i pairs; task t takes rows t and s-2-t, s pairs in all.
    var mn = IntStream.range(0, s / 2).parallel()
      .mapToDouble(t => if (s - 2 - t == t) rowMin(t, Double.PositiveInfinity) else rowMin(s - 2 - t, rowMin(t, Double.PositiveInfinity)))
      .reduce(Double.PositiveInfinity, (mn, d) => if (d > 0 && d < mn) d else mn)
    if (!mn.isFinite) mn = dmax / 1e6 // all sampled points coincide; fall back to a wide ladder
    DistanceBounds(math.min(mn / 2, dmax), math.max(dmax, mn / 2))
  }
}
