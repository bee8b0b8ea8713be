package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Datasets

/** spark-submit entrypoint regenerating Table I (dataset statistics):
  * `spark-submit --class repro.jobs.TableIJob target/scala-2.13/repro_*.jar`
  *
  * Prints, for every dataset substitute, the statistics the paper reports:
  * n, available group settings m, #features, and the distance metric.
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("fdm-table1")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(render(spark))
    finally spark.stop()
  }

  /** Build every dataset at repro scale and tabulate its statistics. */
  def render(spark: SparkSession): String = {
    val rows = Seq(
      (Seq(Datasets.adultLike(spark, "sex"), Datasets.adultLike(spark, "race"), Datasets.adultLike(spark, "sex+race")), "Adult"),
      (Seq(Datasets.celebaLike(spark, "sex"), Datasets.celebaLike(spark, "age"), Datasets.celebaLike(spark, "sex+age")), "CelebA"),
      (Seq(Datasets.censusLike(spark, "sex"), Datasets.censusLike(spark, "age"), Datasets.censusLike(spark, "sex+age")), "Census"),
      (Seq(Datasets.lyricsLike(spark)), "Lyrics"),
      (Seq(Datasets.blobs(spark, 100000, 2), Datasets.blobs(spark, 100000, 20)), "Synthetic"),
    ).map { case (dss, name) =>
      val n = dss.head.df.count()
      val ms = dss.map(_.m).distinct.sorted.mkString("/")
      f"| $name%-9s | $n%9d | $ms%-7s | ${dss.head.nFeatures}%10d | ${dss.head.metric.name}%-9s |"
    }
    ("| dataset   |         n | m       | # features | metric    |" +:
      "|-----------|-----------|---------|------------|-----------|" +: rows).mkString("\n")
  }
}
