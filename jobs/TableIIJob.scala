package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Datasets
import repro.data.Datasets.FdmDataset
import repro.exp.Experiments

/** spark-submit entrypoint regenerating Table II (performance overview of
  * GMM / FairSwap / FairFlow / SFDM1 / SFDM2 at k = 20):
  * `spark-submit --class repro.jobs.TableIIJob target/scala-2.13/repro_*.jar`
  *
  * ε = 0.1 everywhere except Lyrics (0.05), equal-representation quotas —
  * the paper's defaults. Dataset scales are the repro scales of DESIGN.md.
  */
object TableIIJob {
  val K = 20

  /** One row-group of Table II: a label, a dataset builder, and its ε. */
  final case class CellSpec(label: String, eps: Double, build: SparkSession => FdmDataset)

  /** The (dataset, grouping) cells of Table II at repro scale. */
  val cellSpecs: Seq[CellSpec] = Seq(
    CellSpec("Adult/sex m=2", 0.1, Datasets.adultLike(_, "sex")),
    CellSpec("Adult/race m=5", 0.1, Datasets.adultLike(_, "race")),
    CellSpec("Adult/sex+race m=10", 0.1, Datasets.adultLike(_, "sex+race")),
    CellSpec("CelebA/sex m=2", 0.1, Datasets.celebaLike(_, "sex")),
    CellSpec("CelebA/age m=2", 0.1, Datasets.celebaLike(_, "age")),
    CellSpec("CelebA/sex+age m=4", 0.1, Datasets.celebaLike(_, "sex+age")),
    CellSpec("Census/sex m=2", 0.1, Datasets.censusLike(_, "sex")),
    CellSpec("Census/age m=7", 0.1, Datasets.censusLike(_, "age")),
    CellSpec("Census/sex+age m=14", 0.1, Datasets.censusLike(_, "sex+age")),
    CellSpec("Lyrics/genre m=15", 0.05, Datasets.lyricsLike(_)),
  )

  def cells(spark: SparkSession): Seq[(FdmDataset, Double)] =
    cellSpecs.map(c => (c.build(spark), c.eps))

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("fdm-table2")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      cells(spark).foreach { case (ds, eps) =>
        val (_, measures) = Experiments.runCell(ds, K, eps)
        println(Experiments.renderCell(ds.name, ds.groupLabel, ds.m, measures))
        println()
      }
    } finally spark.stop()
  }
}
