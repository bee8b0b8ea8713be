package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Angular, Euclidean, Manhattan}
import repro.spark.SparkFDM

/** Dataset substitutes: schema, sizes, group structure, determinism — with a
  * DuckDB oracle check on the group histograms.
  */
class DatasetsSpec extends SparkSpec {

  private val n = 2000L // small for tests; bench uses repro scale

  for (ds <- Seq(("Adult", "sex", 2, 6), ("Adult", "race", 5, 6), ("Adult", "sex+race", 10, 6),
                 ("CelebA", "sex", 2, 41), ("CelebA", "age", 2, 41), ("CelebA", "sex+age", 4, 41),
                 ("Census", "sex", 2, 25), ("Census", "age", 7, 25), ("Census", "sex+age", 14, 25))) {
    val (name, grouping, m, dims) = ds
    test(s"$name/$grouping: m=$m, $dims features, n rows, groups in range") {
      val d = name match {
        case "Adult"  => Datasets.adultLike(spark, grouping, n)
        case "CelebA" => Datasets.celebaLike(spark, grouping, n)
        case "Census" => Datasets.censusLike(spark, grouping, n)
      }
      assert(d.m == m && d.nFeatures == dims)
      val rows = d.df.select(col("group"), size(col("features")) as "dim").collect()
      assert(rows.length == n)
      assert(rows.forall(r => r.getInt(0) >= 0 && r.getInt(0) < m))
      assert(rows.forall(_.getInt(1) == dims))
    }
  }

  test("Lyrics: 15 groups, 50-dim simplex vectors under Angular") {
    val d = Datasets.lyricsLike(spark, n)
    assert(d.m == 15 && d.nFeatures == 50 && d.metric == Angular)
    val feats = SparkFDM.collectElements(d.df.limit(100))
    feats.foreach { e =>
      assert(e.features.length == 50)
      assert(e.features.forall(v => v >= -1e-9 && v <= 1.0 + 1e-9), "simplex coordinates in [0,1]")
      assert(math.abs(e.features.sum - 1.0) < 1e-6, "topic vector sums to 1")
    }
  }

  test("blobs: 2-d points spanning multiple Gaussian components, uniform groups") {
    val d = Datasets.blobs(spark, n, 5)
    assert(d.m == 5 && d.nFeatures == 2 && d.metric == Euclidean)
    val counts = d.df.groupBy("group").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(counts.keySet == (0 until 5).toSet)
    // Uniform assignment: each group within ±40% of n/m.
    counts.values.foreach(c => assert(math.abs(c - n / 5.0) < n / 5.0 * 0.4))
    // Blob structure: the spread is much wider than unit noise.
    val spread = d.df.select(max(element_at(col("features"), 1)) - min(element_at(col("features"), 1))).head().getDouble(0)
    assert(spread > 5.0)
  }

  test("metrics assigned per the paper's Table I") {
    assert(Datasets.adultLike(spark, "sex", n).metric == Euclidean)
    assert(Datasets.celebaLike(spark, "sex", n).metric == Manhattan)
    assert(Datasets.censusLike(spark, "sex", n).metric == Manhattan)
    assert(Datasets.lyricsLike(spark, n).metric == Angular)
  }

  test("Adult sex split is skewed ~67/33 as in the paper") {
    val d = Datasets.adultLike(spark, "sex", 20000)
    val share = d.df.filter(col("group") === 0).count().toDouble / 20000
    assert(share > 0.62 && share < 0.72, s"majority share $share")
  }

  test("Adult race split has an ~87% majority as in the paper") {
    val d = Datasets.adultLike(spark, "race", 20000)
    val share = d.df.filter(col("group") === 0).count().toDouble / 20000
    assert(share > 0.82 && share < 0.92, s"majority share $share")
  }

  test("generators are deterministic in (n, seed)") {
    val a = SparkFDM.collectElements(Datasets.censusLike(spark, "age", 500).df)
    val b = SparkFDM.collectElements(Datasets.censusLike(spark, "age", 500).df)
    assert(a.map(_.id) == b.map(_.id) && a.map(_.group) == b.map(_.group))
    assert(a.zip(b).forall { case (x, y) => x.features.sameElements(y.features) })
  }

  test("Oracle: group histogram of the Adult substitute matches DuckDB") {
    val d = Datasets.adultLike(spark, "race", 3000)
    val flat = d.df.select(col("id"), col("group") as "grp")
    flat.createOrReplaceTempView("adult_groups")
    val sql = "SELECT CAST(grp AS INT) AS grp, count(*) AS cnt FROM adult_groups GROUP BY CAST(grp AS INT)"
    Oracle.assertEquivalent(spark.sql(sql), sql, "adult_groups" -> flat)
  }

  test("Oracle: group histogram of the Lyrics substitute matches DuckDB") {
    val d = Datasets.lyricsLike(spark, 3000)
    val flat = d.df.select(col("id"), col("group") as "grp")
    flat.createOrReplaceTempView("lyrics_groups")
    val sql = "SELECT CAST(grp AS INT) AS grp, count(*) AS cnt FROM lyrics_groups GROUP BY CAST(grp AS INT)"
    Oracle.assertEquivalent(spark.sql(sql), sql, "lyrics_groups" -> flat)
  }

  test("every dataset exposes enough elements per group for k=20 equal quotas at bench scale") {
    // Default (bench-scale) n here, unlike the other tests: quota feasibility
    // is a property of the real experiment configuration.
    val benchScale = Seq(
      Datasets.adultLike(spark, "sex"), Datasets.adultLike(spark, "race"), Datasets.adultLike(spark, "sex+race"),
      Datasets.celebaLike(spark, "sex"), Datasets.celebaLike(spark, "age"), Datasets.celebaLike(spark, "sex+age"),
      Datasets.censusLike(spark, "sex"), Datasets.censusLike(spark, "age"), Datasets.censusLike(spark, "sex+age"),
      Datasets.lyricsLike(spark),
      Datasets.blobs(spark, 100000, 20),
    )
    benchScale.foreach { d =>
      val minCount = d.df.groupBy("group").count().agg(min("count")).head().getLong(0)
      val quota = math.ceil(20.0 / d.m).toInt
      assert(minCount >= quota, s"${d.name}/${d.groupLabel}: smallest group $minCount < quota $quota")
    }
  }
}
