package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
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

  /** Group index from category weights: inverse-CDF on a uniform column.
    *
    * The uniform draw MUST be materialized as its own column before the
    * `when` chain: `rand` is nondeterministic, so CaseWhen short-circuiting
    * would otherwise desynchronize the per-occurrence random streams and
    * starve the tail categories (each condition would compare a *different*
    * draw). Callers pass a column produced by a separate `withColumn(rand)`.
    */
  private def groupFromUniform(u: org.apache.spark.sql.Column, weights: Seq[Double]) = {
    val cum = weights.scanLeft(0.0)(_ + _).tail
    cum.init.zipWithIndex.foldRight(lit(weights.length - 1): org.apache.spark.sql.Column) {
      case ((c, i), acc) => when(u < c, i).otherwise(acc)
    }.cast(IntegerType)
  }

  /** Add a categorical column drawn from `weights`, with the uniform draw
    * materialized in a separate projection (see [[groupFromUniform]]).
    */
  private def addCategorical(df: DataFrame, name: String, weights: Seq[Double], seed: Long): DataFrame =
    df.withColumn(s"__u_$name", rand(seed))
      .withColumn(name, groupFromUniform(col(s"__u_$name"), weights))
      .drop(s"__u_$name")

  /** Attach Gaussian features with per-(group, feature) mean shifts and
    * `nBlobs` shared mixture components — the generic engine behind the
    * Adult/Census substitutes and the synthetic blobs. Expects a `group`
    * column; the blob id is materialized in its own projection (same
    * nondeterminism rule as [[groupFromUniform]]).
    */
  private def withGaussianFeatures(
      df: DataFrame, nFeatures: Int, nGroups: Int, nBlobs: Int, blobScale: Double,
      groupShiftScale: Double, seed: Long,
  ): DataFrame = {
    val rng = new scala.util.Random(seed)
    val blobCenters = Array.fill(nBlobs, nFeatures)((rng.nextDouble() * 2 - 1) * blobScale)
    val groupShifts = Array.fill(nGroups, nFeatures)(rng.nextGaussian() * groupShiftScale)
    val feats = (0 until nFeatures).map { j =>
      val centerJ = element_at(array(blobCenters.map(c => lit(c(j))).toIndexedSeq: _*), col("__blob") + 1)
      val shiftJ  = element_at(array(groupShifts.map(s => lit(s(j))).toIndexedSeq: _*), col("group") + 1)
      centerJ + shiftJ + randn(seed + 2000 + j)
    }
    df.withColumn("__blob", (rand(seed + 1000) * nBlobs).cast(IntegerType))
      .withColumn("features", array(feats: _*))
  }

  private def finish(df: DataFrame): DataFrame = df.select("id", "group", "features")

  // ---------------------------------------------------------------- Adult --

  /** Adult substitute: 48,842 rows, 6 standardized numeric features,
    * Euclidean. Groupings: "sex" (2, 67/33 as in the paper), "race"
    * (5, 87% majority), "sex+race" (10).
    */
  def adultLike(spark: SparkSession, grouping: String, n: Long = 48842, seed: Long = 11): FdmDataset = {
    val sexW = Seq(0.67, 0.33)
    val raceW = Seq(0.87, 0.06, 0.04, 0.02, 0.01)
    val base = spark.range(n).toDF("id")
    val withAttrs = addCategorical(addCategorical(base, "__sex", sexW, seed), "__race", raceW, seed + 1)
    val (m, grouped) = grouping match {
      case "sex"      => (2, withAttrs.withColumn("group", col("__sex")))
      case "race"     => (5, withAttrs.withColumn("group", col("__race")))
      case "sex+race" => (10, withAttrs.withColumn("group", (col("__sex") * 5 + col("__race")).cast(IntegerType)))
      case g          => throw new IllegalArgumentException(s"unknown Adult grouping: $g")
    }
    val df = finish(withGaussianFeatures(grouped, 6, m, 8, 2.0, 0.4, seed + 2))
    FdmDataset("Adult", grouping, df, n, m, 6, Euclidean)
  }

  // --------------------------------------------------------------- CelebA --

  /** CelebA substitute: 41 soft binary attribute scores, Manhattan.
    * Groupings: "sex" (2, 58/42), "age" (2, 77/23), "sex+age" (4).
    * Paper n = 202,599; default scaled to 50,000 (DESIGN.md).
    */
  def celebaLike(spark: SparkSession, grouping: String, n: Long = 50000, seed: Long = 23): FdmDataset = {
    val sexW = Seq(0.58, 0.42)
    val ageW = Seq(0.77, 0.23)
    val base = spark.range(n).toDF("id")
    val withAttrs = addCategorical(addCategorical(base, "__sex", sexW, seed), "__age", ageW, seed + 1)
    val (m, grouped) = grouping match {
      case "sex"     => (2, withAttrs.withColumn("group", col("__sex")))
      case "age"     => (2, withAttrs.withColumn("group", col("__age")))
      case "sex+age" => (4, withAttrs.withColumn("group", (col("__sex") * 2 + col("__age")).cast(IntegerType)))
      case g         => throw new IllegalArgumentException(s"unknown CelebA grouping: $g")
    }
    val rng = new scala.util.Random(seed + 2)
    val baseP = Array.fill(41)(rng.nextDouble() * 0.8 + 0.1)
    val groupBias = Array.fill(m, 41)(rng.nextGaussian() * 0.15)
    // Each feature: its own rand/randn seeds and a single unconditional
    // evaluation per row — no cross-column nondeterminism hazards.
    val feats = (0 until 41).map { j =>
      val biasJ = element_at(array(groupBias.map(b => lit(b(j))).toIndexedSeq: _*), col("group") + 1)
      // Soft label in [0,1]: attribute classifier score, thresholded noise.
      when(rand(seed + 100 + j) < lit(baseP(j)) + biasJ, 1.0).otherwise(0.0) +
        randn(seed + 200 + j) * 0.05
    }
    val df = finish(grouped.withColumn("features", array(feats: _*)))
    FdmDataset("CelebA", grouping, df, n, m, 41, Manhattan)
  }

  // --------------------------------------------------------------- Census --

  /** Census substitute: 25 normalized numeric features, Manhattan.
    * Groupings: "sex" (2, 52/48), "age" (7), "sex+age" (14).
    * Paper n = 2,426,116; default scaled to 100,000 (DESIGN.md).
    */
  def censusLike(spark: SparkSession, grouping: String, n: Long = 100000, seed: Long = 37): FdmDataset = {
    val sexW = Seq(0.52, 0.48)
    val ageW = Seq(0.09, 0.18, 0.22, 0.19, 0.14, 0.11, 0.07)
    val base = spark.range(n).toDF("id")
    val withAttrs = addCategorical(addCategorical(base, "__sex", sexW, seed), "__age", ageW, seed + 1)
    val (m, grouped) = grouping match {
      case "sex"     => (2, withAttrs.withColumn("group", col("__sex")))
      case "age"     => (7, withAttrs.withColumn("group", col("__age")))
      case "sex+age" => (14, withAttrs.withColumn("group", (col("__sex") * 7 + col("__age")).cast(IntegerType)))
      case g         => throw new IllegalArgumentException(s"unknown Census grouping: $g")
    }
    val df = finish(withGaussianFeatures(grouped, 25, m, 12, 1.5, 0.3, seed + 2))
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
    val grouped = addCategorical(spark.range(n).toDF("id"), "group", genreW, seed)
    // Exponential draws, boosted on two genre-dependent topics, normalized →
    // Dirichlet-like sparse topic vectors. Each gamma is materialized as its
    // own column so the normalizing sum reuses the SAME draw as the
    // numerator (rand is nondeterministic; see groupFromUniform).
    val withGammas = (0 until 50).foldLeft(grouped) { (df, j) =>
      df.withColumn(s"__g$j", -log(rand(seed + 100 + j) + lit(1e-12)) *
        when(col("group") === j % 15 || (col("group") + 7) % 15 === j % 15, 8.0).otherwise(1.0))
    }
    val total = (0 until 50).map(j => col(s"__g$j")).reduce(_ + _)
    val feats = (0 until 50).map(j => col(s"__g$j") / total)
    val df = finish(withGammas.withColumn("features", array(feats: _*)))
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
    val grouped = spark.range(n).toDF("id")
      .withColumn("group", (rand(seed + 2) * m).cast(IntegerType))
      .withColumn("__blob", (rand(seed + 1) * 10).cast(IntegerType))
    val feats = (0 until 2).map { j =>
      element_at(array(centers.map(c => lit(c(j))).toIndexedSeq: _*), col("__blob") + 1) + randn(seed + 3 + j)
    }
    val df = finish(grouped.withColumn("features", array(feats: _*)))
    FdmDataset("Synthetic", s"uniform-$m", df, n, m, 2, Euclidean)
  }
}
