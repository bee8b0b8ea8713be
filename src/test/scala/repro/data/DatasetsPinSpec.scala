package repro.data

import repro.SparkSpec

/** Pins every generator configuration that `TableIJob`/`TableIIJob` build to
  * a hash of its rows at n = 2,000: (id, group, raw bits of every feature), in
  * row order. A rewrite of a generator must leave these hashes unchanged.
  *
  * `rand`/`randn` seed each partition with seed + partition index, so rows
  * depend on the number of partitions of `spark.range`. The spec fixes it at
  * 4 (the benchmark's `local[4]`) through `spark.sql.leafNodeDefaultParallelism`,
  * so the hashes do not depend on the machine's core count.
  */
class DatasetsPinSpec extends SparkSpec {

  private val n = 2000L

  /** FNV-1a over 64-bit words: id, group, then each feature's raw bits. */
  private def rowHash(ds: Datasets.FdmDataset): String = {
    var h = 0xcbf29ce484222325L
    def mix(v: Long): Unit = h = (h ^ v) * 0x100000001b3L
    val rows = ds.df.collect()
    assert(rows.length == n)
    rows.foreach { r =>
      mix(r.getLong(0))
      mix(r.getInt(1).toLong)
      r.getSeq[Double](2).foreach(v => mix(java.lang.Double.doubleToRawLongBits(v)))
    }
    f"$h%016x"
  }

  private val pinned: Seq[(String, org.apache.spark.sql.SparkSession => Datasets.FdmDataset, String)] = Seq(
    ("Adult/sex", Datasets.adultLike(_, "sex", n), "e68032b7f6007109"),
    ("Adult/race", Datasets.adultLike(_, "race", n), "6cf3336227dc3366"),
    ("Adult/sex+race", Datasets.adultLike(_, "sex+race", n), "b47fc6745c6994c0"),
    ("CelebA/sex", Datasets.celebaLike(_, "sex", n), "4aded11538b78dd3"),
    ("CelebA/age", Datasets.celebaLike(_, "age", n), "7570b4b9aabbfe8c"),
    ("CelebA/sex+age", Datasets.celebaLike(_, "sex+age", n), "e96fdfe2bcf622c9"),
    ("Census/sex", Datasets.censusLike(_, "sex", n), "22035039ce419acd"),
    ("Census/age", Datasets.censusLike(_, "age", n), "c59c9354903168b2"),
    ("Census/sex+age", Datasets.censusLike(_, "sex+age", n), "44bc0fee7d53c66c"),
    ("Lyrics/genre", Datasets.lyricsLike(_, n), "f03f1599d35153b0"),
    ("Synthetic/m=2", Datasets.blobs(_, n, 2), "e459c54b55fb7a36"),
    ("Synthetic/m=20", Datasets.blobs(_, n, 20), "0687903f0a69ffd4"),
  )

  for ((label, build, expected) <- pinned) {
    test(s"$label: rows at n = $n hash to the pinned value") {
      val key = "spark.sql.leafNodeDefaultParallelism"
      val before = spark.conf.getOption(key)
      spark.conf.set(key, "4")
      try {
        val ds = build(spark)
        assert(ds.df.rdd.getNumPartitions == 4)
        assert(rowHash(ds) == expected)
      } finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    }
  }
}
