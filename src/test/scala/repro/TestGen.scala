package repro

import repro.core.Element
import scala.util.Random

/** Deterministic random instances for unit tests (small enough for the
  * brute-force oracles in `Diversity`).
  */
object TestGen {

  /** n points uniform in [0,1]^dim with uniformly random groups in [0,m),
    * re-drawn until every group holds at least `minPerGroup` elements.
    */
  def randomElements(n: Int, m: Int, dim: Int, seed: Long, minPerGroup: Int = 1): IndexedSeq[Element] = {
    val rng = new Random(seed)
    var attempt = 0
    while (attempt < 1000) {
      val xs = (0 until n).map { i =>
        Element(i.toLong, rng.nextInt(m), Array.fill(dim)(rng.nextDouble()))
      }
      val counts = (0 until m).map(g => xs.count(_.group == g))
      if (counts.forall(_ >= minPerGroup)) return xs
      attempt += 1
    }
    throw new IllegalStateException(s"could not draw $n elements with ≥$minPerGroup per group (m=$m)")
  }

  /** Clustered points: `nClusters` centers in [0,10]^dim, tight Gaussian
    * noise — gives well-separated optima that exercise the guess ladder.
    */
  def clusteredElements(n: Int, m: Int, dim: Int, nClusters: Int, seed: Long, minPerGroup: Int = 1): IndexedSeq[Element] = {
    val rng = new Random(seed)
    val centers = Array.fill(nClusters, dim)(rng.nextDouble() * 10)
    var attempt = 0
    while (attempt < 1000) {
      val xs = (0 until n).map { i =>
        val c = centers(rng.nextInt(nClusters))
        Element(i.toLong, rng.nextInt(m), Array.tabulate(dim)(j => c(j) + rng.nextGaussian() * 0.1))
      }
      val counts = (0 until m).map(g => xs.count(_.group == g))
      if (counts.forall(_ >= minPerGroup)) return xs
      attempt += 1
    }
    throw new IllegalStateException("could not draw clustered elements")
  }

  /** Topic vectors shaped like `Datasets.lyricsLike`'s: `dim` exponential
    * draws, those of the element's two group topics (`j % 15` equal to g or
    * to `(g + 7) % 15`) boosted ×8, normalized onto the simplex. Groups are
    * uniform in [0,m).
    */
  def lyricsLikeElements(n: Int, m: Int, dim: Int, seed: Long): IndexedSeq[Element] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val g = rng.nextInt(m)
      val raw = Array.tabulate(dim) { j =>
        -math.log(rng.nextDouble() + 1e-12) * (if (j % 15 == g || (g + 7) % 15 == j % 15) 8.0 else 1.0)
      }
      val total = raw.sum
      Element(i.toLong, g, raw.map(_ / total))
    }
  }
}
