package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{Angular, Euclidean, Manhattan, Metric}

/** Synthetic substitutes for the paper's evaluation datasets (Table I).
  *
  * The real datasets (Adult, CelebA, Census, Lyrics) are not available in
  * this sealed container, so each generator reproduces the *shape* that
  * drives max-min diversity algorithms: dimensionality, distance metric,
  * number of groups, group-size skew, and cluster structure. Group labels
  * shift the feature distribution slightly, as real sensitive attributes do.
  * All generators are deterministic in (n, seed) and built from pure
  * DataFrame/Catalyst expressions. See DESIGN.md § Dataset substitutions.
  *
  * Each generator is a short chain of `select`s over `spark.range(n)`. A
  * `rand`/`randn` draw that is read more than once, or by a `when` chain
  * that could skip it, gets its own projection first: the draws are
  * nondeterministic, so Catalyst keeps that projection apart and every
  * reader sees the same value.
  *
  * Output schema: `id: long, group: int, features: array<double>`.
  */
object Datasets {

  /** A generated dataset plus the metadata Table I reports. */
  final case class FdmDataset(
      name: String,
      groupLabel: String,
      df: DataFrame,
      n: Long,
      m: Int,
      nFeatures: Int,
      metric: Metric,
  )

  /** Category index from weights: inverse CDF of the uniform column `u`.
    *
    * `u` MUST be a column materialized by an earlier projection: the `when`
    * chain short-circuits, so an inline `rand` would be drawn a varying
    * number of times per row, each condition would compare a *different*
    * draw, and the tail categories would starve.
    */
  private def groupFromUniform(u: Column, weights: Seq[Double]): Column = {
    val cum = weights.scanLeft(0.0)(_ + _).tail
    cum.init.zipWithIndex.foldRight(lit(weights.length - 1)) {
      case ((c, i), acc) => when(u < c, i).otherwise(acc)
    }.cast(IntegerType)
  }

  /** `(id, group)` rows for `dataset`'s two weighted attributes `a` and `b`,
    * drawn from uniforms with seeds `seed` and `seed + 1`. `grouping` names
    * `a`, `b`, or `a+b`, labelled `a·|b| + b`.
    *
    * @return m and the rows
    */
  private def twoAttributeGroups(
      spark: SparkSession, n: Long, seed: Long, dataset: String, grouping: String,
      a: (String, Seq[Double]), b: (String, Seq[Double]),
  ): (Int, DataFrame) = {
    val (ga, gb) = (groupFromUniform(col("ua"), a._2), groupFromUniform(col("ub"), b._2))
    val (m, group) = grouping match {
      case a._1                         => (a._2.length, ga)
      case b._1                         => (b._2.length, gb)
      case g if g == s"${a._1}+${b._1}" => (a._2.length * b._2.length, ga * b._2.length + gb)
      case g                            => throw new IllegalArgumentException(s"unknown $dataset grouping: $g")
    }
    (m, spark.range(n).select(col("id"), rand(seed) as "ua", rand(seed + 1) as "ub").select(col("id"), group as "group"))
  }

  /** Attach Gaussian features with per-(group, feature) mean shifts and
    * `nBlobs` shared mixture components — the generic engine behind the
    * Adult/Census substitutes. Expects `(id, group)` rows; the blob id is
    * drawn in its own projection, as every feature reads it.
    */
  private def withGaussianFeatures(
      grouped: DataFrame, nFeatures: Int, nGroups: Int, nBlobs: Int, blobScale: Double,
      groupShiftScale: Double, seed: Long,
  ): DataFrame = {
    val rng = new scala.util.Random(seed)
    val blobCenters = Array.fill(nBlobs, nFeatures)((rng.nextDouble() * 2 - 1) * blobScale)
    val groupShifts = Array.fill(nGroups, nFeatures)(rng.nextGaussian() * groupShiftScale)
    val feats = (0 until nFeatures).map { j =>
      val centerJ = element_at(array(blobCenters.map(c => lit(c(j))).toIndexedSeq: _*), col("blob") + 1)
      val shiftJ  = element_at(array(groupShifts.map(s => lit(s(j))).toIndexedSeq: _*), col("group") + 1)
      centerJ + shiftJ + randn(seed + 2000 + j)
    }
    grouped.select(col("id"), col("group"), (rand(seed + 1000) * nBlobs).cast(IntegerType) as "blob")
      .select(col("id"), col("group"), array(feats: _*) as "features")
  }

  // ---------------------------------------------------------------- Adult --

  /** Adult substitute: 48,842 rows, 6 standardized numeric features,
    * Euclidean. Groupings: "sex" (2, 67/33 as in the paper), "race"
    * (5, 87% majority), "sex+race" (10).
    */
  def adultLike(spark: SparkSession, grouping: String, n: Long = 48842, seed: Long = 11): FdmDataset = {
    val (m, grouped) = twoAttributeGroups(spark, n, seed, "Adult", grouping,
      "sex" -> Seq(0.67, 0.33), "race" -> Seq(0.87, 0.06, 0.04, 0.02, 0.01))
    val df = withGaussianFeatures(grouped, 6, m, 8, 2.0, 0.4, seed + 2)
    FdmDataset("Adult", grouping, df, n, m, 6, Euclidean)
  }

  // --------------------------------------------------------------- CelebA --

  /** CelebA substitute: 41 soft binary attribute scores, Manhattan.
    * Groupings: "sex" (2, 58/42), "age" (2, 77/23), "sex+age" (4).
    * Paper n = 202,599; default scaled to 50,000 (DESIGN.md).
    */
  def celebaLike(spark: SparkSession, grouping: String, n: Long = 50000, seed: Long = 23): FdmDataset = {
    val (m, grouped) = twoAttributeGroups(spark, n, seed, "CelebA", grouping,
      "sex" -> Seq(0.58, 0.42), "age" -> Seq(0.77, 0.23))
    val rng = new scala.util.Random(seed + 2)
    val baseP = Array.fill(41)(rng.nextDouble() * 0.8 + 0.1)
    val groupBias = Array.fill(m, 41)(rng.nextGaussian() * 0.15)
    // Each feature: its own rand/randn seeds, each read once and
    // unconditionally (the first `when` condition is always evaluated).
    val feats = (0 until 41).map { j =>
      val biasJ = element_at(array(groupBias.map(b => lit(b(j))).toIndexedSeq: _*), col("group") + 1)
      // Soft label in [0,1]: attribute classifier score, thresholded noise.
      when(rand(seed + 100 + j) < lit(baseP(j)) + biasJ, 1.0).otherwise(0.0) +
        randn(seed + 200 + j) * 0.05
    }
    val df = grouped.select(col("id"), col("group"), array(feats: _*) as "features")
    FdmDataset("CelebA", grouping, df, n, m, 41, Manhattan)
  }

  // --------------------------------------------------------------- Census --

  /** Census substitute: 25 normalized numeric features, Manhattan.
    * Groupings: "sex" (2, 52/48), "age" (7), "sex+age" (14).
    * Paper n = 2,426,116; default scaled to 100,000 (DESIGN.md).
    */
  def censusLike(spark: SparkSession, grouping: String, n: Long = 100000, seed: Long = 37): FdmDataset = {
    val (m, grouped) = twoAttributeGroups(spark, n, seed, "Census", grouping,
      "sex" -> Seq(0.52, 0.48), "age" -> Seq(0.09, 0.18, 0.22, 0.19, 0.14, 0.11, 0.07))
    val df = withGaussianFeatures(grouped, 25, m, 12, 1.5, 0.3, seed + 2)
    FdmDataset("Census", grouping, df, n, m, 25, Manhattan)
  }

  // --------------------------------------------------------------- Lyrics --

  /** Lyrics substitute: 50-dim LDA-style topic vectors on the probability
    * simplex, Angular distance, 15 skewed genre groups. Paper n = 122,448;
    * default scaled to 30,000 (DESIGN.md).
    */
  def lyricsLike(spark: SparkSession, n: Long = 30000, seed: Long = 53): FdmDataset = {
    val m = 15
    // Zipf-ish genre popularity.
    val raw = (1 to m).map(i => 1.0 / i)
    val genreW = raw.map(_ / raw.sum)
    // Exponential draws, boosted on two genre-dependent topics, normalized →
    // Dirichlet-like sparse topic vectors. The gammas get their own
    // projection, as each is read by its numerator and by the total.
    val gammas = (0 until 50).map { j =>
      -log(rand(seed + 100 + j) + lit(1e-12)) *
        when(col("group") === j % 15 || (col("group") + 7) % 15 === j % 15, 8.0).otherwise(1.0) as s"g$j"
    }
    val total = (0 until 50).map(j => col(s"g$j")).reduce(_ + _)
    val df = spark.range(n).select(col("id"), rand(seed) as "u")
      .select(col("id"), groupFromUniform(col("u"), genreW) as "group")
      .select(col("id") +: col("group") +: gammas: _*)
      .select(col("id"), col("group"), array((0 until 50).map(j => col(s"g$j") / total): _*) as "features")
    FdmDataset("Lyrics", "genre", df, n, m, 50, Angular)
  }

  // ------------------------------------------------------------ Synthetic --

  /** Synthetic scalability data: ten 2-d Gaussian isotropic blobs with
    * centers in [-10,10]², identity covariance, groups uniform at random —
    * exactly the paper's §V-A generator.
    */
  def blobs(spark: SparkSession, n: Long, m: Int, seed: Long = 71): FdmDataset = {
    val rng = new scala.util.Random(seed)
    val centers = Array.fill(10, 2)(rng.nextDouble() * 20 - 10)
    val feats = (0 until 2).map { j =>
      element_at(array(centers.map(c => lit(c(j))).toIndexedSeq: _*), col("blob") + 1) + randn(seed + 3 + j)
    }
    val df = spark.range(n)
      .select(col("id"), (rand(seed + 2) * m).cast(IntegerType) as "group", (rand(seed + 1) * 10).cast(IntegerType) as "blob")
      .select(col("id"), col("group"), array(feats: _*) as "features")
    FdmDataset("Synthetic", s"uniform-$m", df, n, m, 2, Euclidean)
  }
}
