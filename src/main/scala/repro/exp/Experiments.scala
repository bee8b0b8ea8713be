package repro.exp

import repro.baseline.{FairFlow, FairSwap, GMM}
import repro.core._
import repro.data.Datasets.FdmDataset
import repro.spark.SparkFDM

/** Shared harness behind the Table I / Table II reproductions: quota
  * computation, permutation-averaged runs of every algorithm on one dataset
  * cell, and plain-text table rendering. Used by `bench/` suites and the
  * `jobs/` spark-submit entrypoints.
  */
object Experiments {

  /** Equal representation (the paper's default): `k_i = ⌈k/m⌉` for the first
    * `k mod m` groups, `⌊k/m⌋` for the rest.
    */
  def quotasEqual(k: Int, m: Int): IndexedSeq[Int] = {
    require(k >= m, s"k=$k must be ≥ m=$m (at least one element per group)")
    val base = k / m
    val extra = k % m
    (0 until m).map(i => if (i < extra) base + 1 else base)
  }

  /** One averaged measurement: diversity, wall seconds, and (for streaming
    * algorithms) stored-element count and the fraction of runs whose result
    * is fair (`FdmResult.fair`).
    */
  final case class Measure(algo: String, diversity: Double, timeSec: Double, elems: Option[Double], fairFrac: Option[Double] = None) {
    def fmt: String = {
      val e = elems.map(v => f"$v%.1f").getOrElse("-")
      val f = fairFrac.map(v => f"$v%.2f").getOrElse("-")
      f"$algo%-9s div=$diversity%9.4f  time=$timeSec%9.3fs  #elem=$e%s  fair=$f%s"
    }
  }

  /** All Table II measurements for one (dataset, grouping) cell. A
    * streaming run's time includes the bounds pre-pass, which is timed once
    * per cell and added to each run.
    *
    * @param xs           collected elements in generator order
    * @param ks           per-group quotas (sum k)
    * @param eps          ladder parameter ε
    * @param streamSeeds  permutation seeds for the streaming algorithms
    * @param offlineSeeds permutation seeds for the offline baselines (fewer,
    *                     because they are orders of magnitude slower — see
    *                     EXPERIMENTS.md)
    */
  def runCell(
      xs: IndexedSeq[Element],
      ks: IndexedSeq[Int],
      metric: Metric,
      eps: Double,
      streamSeeds: Seq[Long] = Seq(1L, 2L, 3L),
      offlineSeeds: Seq[Long] = Seq(1L),
  ): Seq[Measure] = {
    val m = ks.length
    val k = ks.sum
    val out = Seq.newBuilder[Measure]

    def permuted(seed: Long): IndexedSeq[Element] = new scala.util.Random(seed).shuffle(xs)
    def timed[A](f: => A): (A, Double) = {
      val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e9)
    }
    def avg(v: Seq[Double]): Double = v.sum / v.length
    val (bounds, boundsSec) = timed(DistanceBounds.estimate(xs, metric))
    def streaming(algo: String, runs: Seq[FdmResult]): Measure =
      Measure(algo, avg(runs.map(_.diversity)), boundsSec + avg(runs.map(_.totalSeconds)),
        Some(avg(runs.map(_.storedElements.toDouble))), Some(avg(runs.map(r => if (r.fair) 1.0 else 0.0))))

    // --- GMM (unconstrained upper-bound reference; diversity only in the paper) ---
    val gmmRuns = offlineSeeds.map { s => timed(Diversity.div(GMM.run(permuted(s), k, metric), metric)) }
    out += Measure("GMM", avg(gmmRuns.map(_._1)), avg(gmmRuns.map(_._2)), None)

    // --- FairSwap (offline, m = 2 only) ---
    if (m == 2) {
      val runs = offlineSeeds.map { s => timed(Diversity.div(FairSwap.run(permuted(s), ks(0), ks(1), metric), metric)) }
      out += Measure("FairSwap", avg(runs.map(_._1)), avg(runs.map(_._2)), None)
    }

    // --- FairFlow (offline, arbitrary m) ---
    locally {
      val runs = offlineSeeds.map { s => timed(Diversity.div(FairFlow.run(permuted(s), ks, metric), metric)) }
      out += Measure("FairFlow", avg(runs.map(_._1)), avg(runs.map(_._2)), None)
    }

    // --- SFDM1 (streaming, m = 2 only) ---
    if (m == 2) {
      val runs = streamSeeds.map { s =>
        val st = new SFDM1(ks(0), ks(1), eps, bounds, metric)
        st.processAll(permuted(s))
        st.finish()
      }
      out += streaming("SFDM1", runs)
    }

    // --- SFDM2 (streaming, arbitrary m) ---
    locally {
      val runs = streamSeeds.map { s =>
        val st = new SFDM2(ks, eps, bounds, metric)
        st.processAll(permuted(s))
        st.finish()
      }
      out += streaming("SFDM2", runs)
    }

    out.result()
  }

  /** Collect a generated dataset and run the full cell. */
  def runCell(ds: FdmDataset, k: Int, eps: Double): (IndexedSeq[Int], Seq[Measure]) = {
    val xs = SparkFDM.collectElements(ds.df)
    val ks = quotasEqual(k, ds.m)
    (ks, runCell(xs, ks, ds.metric, eps))
  }

  /** Render one Table II block. */
  def renderCell(dataset: String, group: String, m: Int, measures: Seq[Measure]): String = {
    val header = f"$dataset%-10s $group%-10s m=$m%-3d"
    (header +: measures.map("    " + _.fmt)).mkString("\n")
  }
}
