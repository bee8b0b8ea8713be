package repro.perf

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}
import repro.baseline.GMM
import repro.core._
import repro.data.Datasets
import repro.data.Datasets.FdmDataset
import repro.exp.Experiments
import repro.jobs.TableIIJob
import repro.spark.SparkFDM
import repro.stream.StructuredFDM
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** The SFDM1/SFDM2 benchmark: one Table II cell per workload, solved one-shot
  * (bounds pre-pass, one pass over the stream, post-processing) over a list of
  * stream permutations fixed by `--seed`, for `--seconds` seconds.
  *
  * Load comes from this single driver thread in a closed loop: the next
  * arrival (or micro-batch) is sent once the previous one is accepted, and
  * the next solve starts when the previous one has returned. Every solve is
  * checked; the last line of standard output is the JSON result.
  *
  * Each layer is timed from outside, around the calls into its public
  * functions. With `--trace 1` those timestamps are also kept as spans,
  * written to a spans file, and summarised as per-layer metrics; every other
  * solve is left untraced so the difference gives the tracing overhead.
  */
object FdmBench {

  /** One benchmark workload: a Table II cell and the path that solves it.
    *
    * @param perms      length of the permutation list; every run makes at
    *                   least one full pass, and the quality metrics and the
    *                   solution hash are taken over that first pass
    * @param warmup     untimed solves before the first timed one
    * @param warmupRows stream prefix the warm-up solves use
    */
  final case class Workload(
      name: String,
      eps: Double,
      n: Long,
      perms: Int,
      warmup: Int,
      warmupRows: Int,
      structured: Boolean,
      data: (SparkSession, Long) => FdmDataset,
      state: (IndexedSeq[Int], Double, DistanceBounds, Metric) => (FdmState, Int),
  )

  private def sfdm1(ks: IndexedSeq[Int], eps: Double, b: DistanceBounds, m: Metric): (FdmState, Int) = {
    val s = new SFDM1(ks(0), ks(1), eps, b, m); (s, s.guesses.length)
  }
  private def sfdm2(ks: IndexedSeq[Int], eps: Double, b: DistanceBounds, m: Metric): (FdmState, Int) = {
    val s = new SFDM2(ks, eps, b, m); (s, s.guesses.length)
  }

  /** Adult is a cheap kernel with trivial post-processing and no Spark;
    * lyrics has the costliest distance and the heaviest SFDM2
    * post-processing; census drives SFDM2 through Structured Streaming, where
    * Spark's per-batch overhead dominates. BENCHMARK.json lists the first two;
    * census is run by name (sfdmbench/README.md says why).
    */
  val workloads: Seq[Workload] = Seq(
    Workload("adult-m2-sfdm1", 0.1, 48842, perms = 32, warmup = 6, warmupRows = Int.MaxValue,
      structured = false, (s, n) => Datasets.adultLike(s, "sex", n), sfdm1),
    Workload("lyrics-m15-sfdm2", 0.05, 30000, perms = 12, warmup = 2, warmupRows = Int.MaxValue,
      structured = false, (s, n) => Datasets.lyricsLike(s, n), sfdm2),
    Workload("census-m14-structured", 0.1, 100000, perms = 2, warmup = 1, warmupRows = 4 * 4096,
      structured = true, (s, n) => Datasets.censusLike(s, "sex+age", n), sfdm2),
  )

  /** Arrivals per timed chunk; also `StructuredFDM.run`'s default micro-batch. */
  val Chunk = 4096

  /** Solve id of the traced Structured Streaming pass on a local workload. */
  val StructuredPass = 1000000

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      master: String,
      smoke: Boolean,
      out: Path,
  )

  def parseArgs(args: Array[String]): Args = {
    val smoke = args.contains("--smoke")
    val kv = args.filterNot(_ == "--smoke").grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      kv.getOrElse("master", "local[4]"), smoke, Paths.get(kv.getOrElse("out", ".bench_build")))
  }

  def main(args: Array[String]): Unit = {
    val ok =
      try {
        val a = parseArgs(args)
        val w = workloads.find(_.name == a.workload).getOrElse(throw new IllegalArgumentException(
          s"unknown workload ${a.workload}; known: ${workloads.map(_.name).mkString(", ")}"))
        new Bench(w, a).run()
      } catch {
        case e: Exception => e.printStackTrace(); false
      }
    sys.exit(if (ok) 0 else 1)
  }

  // ------------------------------------------------------------ statistics --

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.length

  /** The highest percentile with at least ten samples beyond it, as
    * (value, percentile, samples). Below 21 samples that percentile would sit
    * under the median, so the maximum is reported instead (percentile 100).
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted
    val n = s.length
    if (n >= 21) (s(n - 11), 100.0 * (n - 10) / n, n) else (s.last, 100.0, n)
  }

  /** A fixed pure-CPU loop; its time shows how fast the machine is right now. */
  def calibrate(): Double = {
    val t0 = System.nanoTime()
    var x = 88172645463325252L
    var acc = 0.0
    var i = 0
    while (i < 40000000) {
      x ^= x << 13; x ^= x >>> 7; x ^= x << 17
      acc += math.sqrt((x >>> 11).toDouble)
      i += 1
    }
    if (acc == 42.0) println("") // keeps the loop observable
    (System.nanoTime() - t0) / 1e6
  }

  /** Collects the progress of every micro-batch that carried rows. The
    * listener bus is asynchronous, so [[take]] waits for the expected count.
    */
  final class ProgressLog extends StreamingQueryListener {
    private val q = new java.util.concurrent.ConcurrentLinkedQueue[StreamingQueryProgress]
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
      if (e.progress.numInputRows > 0) q.add(e.progress)

    def take(expected: Long, timeoutMs: Long = 10000): Seq[StreamingQueryProgress] = {
      val until = System.currentTimeMillis() + timeoutMs
      while (q.size < expected && System.currentTimeMillis() < until) Thread.sleep(2)
      val out = ArrayBuffer.empty[StreamingQueryProgress]
      while (!q.isEmpty) out += q.poll()
      out.sortBy(_.batchId).toSeq
    }
  }

  def duration(p: StreamingQueryProgress, key: String): Double =
    Option(p.durationMs.get(key)).map(_.doubleValue).getOrElse(0.0)
}

/** One solve and everything measured around it. */
final class Solve(val id: Int, val perm: Int, val n: Int, val traced: Boolean) {
  var start, boundsEnd, end = 0L
  var guesses = 0
  var clock: ChunkClock = _
  var wallAnchorMs, nanoAnchor = 0L
  var batches: Seq[StreamingQueryProgress] = Nil
  var result: FdmResult = _
  var failure: String = _
  var localStreamNs = 0L
  var contentsNs = 0L

  def ok: Boolean = failure == null
  def fail(why: String): Unit = if (failure == null) failure = why
  def solveNs: Long = end - start
  def boundsNs: Long = boundsEnd - start
  def streamNs: Long = clock.finishStart - boundsEnd
  def postNs: Long = clock.finishEnd - clock.finishStart
}

final class Bench(w: FdmBench.Workload, a: FdmBench.Args) {
  import FdmBench._

  private val n: Long = if (a.smoke) math.min(w.n, 4000L) else w.n
  private val perms: Int = if (a.smoke) 2 else w.perms
  private val chunk: Int = if (a.smoke) 512 else Chunk
  private val dataReps: Int = if (a.smoke) 1 else 3
  private val trace = new Trace
  private val progress = new ProgressLog
  private val solves = ArrayBuffer.empty[Solve]
  private val failures = ArrayBuffer.empty[String]
  private val notes = ArrayBuffer.empty[String]

  private var spark: SparkSession = _
  private var metric: Metric = _
  private var ks: IndexedSeq[Int] = _
  private var xs: IndexedSeq[Element] = _
  private var permList: IndexedSeq[IndexedSeq[Element]] = _
  private var gmmDiv = 0.0

  private def span[A](name: String)(body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    val t1 = System.nanoTime()
    trace.add(name, t0, t1, -1, -1)
    (r, t1 - t0)
  }

  def run(): Boolean = {
    val calibStart = calibrate()
    val setupStart = System.nanoTime()
    val (session, sessionNs) = span("spark.session") {
      SparkSession.builder
        .master(a.master)
        .appName("fdm-bench")
        .config("spark.sql.autoBroadcastJoinThreshold", -1) // as in TableIIJob
        .config("spark.ui.enabled", false)
        .config("spark.local.dir", a.out.resolve("tmp").toAbsolutePath.toString)
        .getOrCreate()
    }
    spark = session
    try {
      spark.sparkContext.setLogLevel("ERROR")
      spark.streams.addListener(progress)
      measure(calibStart, setupStart, sessionNs)
    } finally spark.stop()
  }

  private def measure(calibStart: Double, setupStart: Long, sessionNs: Long): Boolean = {
    // Generation + collection, repeated so set-up time is a median.
    val gens = (0 until dataReps).map { _ =>
      span("data.generate_collect") {
        val ds = w.data(spark, n)
        (ds, SparkFDM.collectElements(ds.df))
      }
    }
    val ds = gens.head._1._1
    xs = gens.head._1._2
    gens.tail.foreach { case ((_, ys), _) =>
      if (ys.length != xs.length || ys.indices.exists(i => ys(i).id != xs(i).id || ys(i).group != xs(i).group ||
          !java.util.Arrays.equals(ys(i).features, xs(i).features)))
        failures += "data generation is not deterministic"
    }
    val genNs = gens.map(_._2.toDouble)
    metric = ds.metric
    ks = Experiments.quotasEqual(TableIIJob.K, ds.m)
    gmmDiv = span("gmm") { Diversity.div(GMM.run(xs, TableIIJob.K, metric), metric) }._1
    permList = span("permutations") {
      (0 until perms).map(p => new scala.util.Random(a.seed * 1000003L + p).shuffle(xs))
    }._1
    span("warmup") {
      (0 until (if (a.smoke) 1 else w.warmup)).foreach { i =>
        solve(-1 - i, i % perms, traced = false, permList(i % perms).take(w.warmupRows), w.structured)
      }
    }
    val setupNs = (System.nanoTime() - setupStart) - genNs.sum + median(genNs)

    // Timed solves: at least one full pass over the permutation list.
    val alloc0 = allocatedBytes()
    ManagementFactory.getMemoryPoolMXBeans.asScala.foreach(_.resetPeakUsage())
    val loopStart = System.nanoTime()
    val deadline = loopStart + a.seconds * 1000000000L
    var i = 0
    while (i < perms || System.nanoTime() < deadline) {
      solve(i, i % perms, traced = a.trace && i % 2 == 1, permList(i % perms), w.structured)
      i += 1
    }
    val loopNs = System.nanoTime() - loopStart
    val timed = solves.filter(_.id >= 0).toSeq
    val allocMbPerSolve = (allocatedBytes() - alloc0) / 1048576.0 / timed.length
    val heapPeakMb = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / 1048576.0
    // The Spark layer is measured on every workload's traced run: the local
    // workloads push their first permutation through StructuredFDM once.
    val structuredPass =
      if (a.trace && !w.structured) Seq(solve(StructuredPass, 0, traced = true, permList(0), structured = true))
      else timed.filter(_.traced)

    val firstPass = timed.filter(_.id < perms)
    val hash = solutionHash(firstPass)
    val attempted = solves.length
    val failed = solves.count(!_.ok)
    val correct = failed == 0 && failures.isEmpty && firstPass.forall(_.ok)
    val good = timed.filter(_.ok)

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) endToEnd(setupNs, good, firstPass, attempted, failed)
      else perLayer(sessionNs, median(genNs), good, structuredPass.filter(_.ok), allocMbPerSolve, heapPeakMb)

    val calibEnd = calibrate()
    println(f"# workload=${w.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0} master=${a.master} n=$n m=${ks.length} k=${TableIIJob.K} eps=${w.eps} perms=$perms")
    println(f"# calibration_ms start=$calibStart%.1f end=$calibEnd%.1f (machine-speed diagnostic, never compared)")
    println(f"# solves timed=${timed.length} loop_s=${loopNs / 1e9}%.2f first_pass_solution_hash=$hash")
    notes.foreach(println)
    failures.foreach(f => println(s"# FAILURE: $f"))
    solves.filterNot(_.ok).foreach(s => println(s"# FAILED solve ${s.id} (perm ${s.perm}): ${s.failure}"))
    if (a.trace) {
      printTrace("set-up", Seq(-1))
      printTrace("traced timed solves", good.filter(_.traced).map(_.id))
      if (!w.structured) printTrace("Structured Streaming pass", structuredPass.filter(_.ok).map(_.id))
      metrics.filter(_._1.startsWith("trace.")).foreach { case (name, v, unit) => println(f"# $name = $v%.6f $unit") }
      writeTrace()
    }
    val json = resultJson(correct, attempted, failed, metrics)
    writeResults(json, hash, calibStart, calibEnd, timed)
    println(json)
    correct
  }

  // -------------------------------------------------------------- solving --

  /** Solve one stream one-shot, check the answer, record its spans. */
  private def solve(id: Int, perm: Int, traced: Boolean, stream: IndexedSeq[Element], structured: Boolean): Solve = {
    val s = new Solve(id, perm, stream.length, traced)
    solves += s
    try {
      if (structured) solveStructured(s, stream) else solveLocal(s, stream)
      check(s)
      if (traced) record(s)
    } catch {
      case e: Exception => s.fail(s"${e.getClass.getSimpleName}: ${e.getMessage}")
    }
    s
  }

  /** The bounds pre-pass and a fresh state wrapped in a [[ChunkClock]]. */
  private def begin(s: Solve, stream: IndexedSeq[Element]): DistanceBounds = {
    s.start = System.nanoTime()
    val bounds = DistanceBounds.estimate(stream, metric)
    s.boundsEnd = System.nanoTime()
    val (st, guesses) = w.state(ks, w.eps, bounds, metric)
    s.guesses = guesses
    s.clock = new ChunkClock(st, chunk, stream.length)
    bounds
  }

  private def solveLocal(s: Solve, stream: IndexedSeq[Element]): Unit = {
    begin(s, stream)
    s.clock.processAll(stream)
    s.result = s.clock.finish()
    s.end = System.nanoTime()
    if (s.traced) s.contentsNs = timeContents(s.clock)
  }

  /** Bounds, then `StructuredFDM.run`. Afterwards, untimed, the same stream
    * goes through a local state with the same bounds, whose solution must be
    * identical: the bit-identity `StructuredFDM` promises.
    */
  private def solveStructured(s: Solve, stream: IndexedSeq[Element]): Unit = {
    progress.take(0, 0) // drop progress left over from earlier queries
    val bounds = begin(s, stream)
    s.wallAnchorMs = System.currentTimeMillis()
    s.nanoAnchor = System.nanoTime()
    val (res, batches) = StructuredFDM.run(spark, stream, s.clock, chunk)
    s.end = System.nanoTime()
    s.result = res
    s.batches = progress.take(batches)
    if (s.batches.length != batches) s.fail(s"listener saw ${s.batches.length} of $batches micro-batches")
    if (s.traced) s.contentsNs = timeContents(s.clock)
    val (local, _) = w.state(ks, w.eps, bounds, metric)
    val t0 = System.nanoTime()
    local.processAll(stream)
    s.localStreamNs = System.nanoTime() - t0
    val ids = local.finish().solution.map(_.id).sorted
    if (ids != res.solution.map(_.id).sorted) s.fail("StructuredFDM solution differs from the local run on the same stream")
  }

  private def timeContents(st: FdmState): Long = {
    val t0 = System.nanoTime()
    st.contents
    System.nanoTime() - t0
  }

  /** The output checks; the first one that fails is the solve's failure. */
  private def check(s: Solve): Unit = {
    val r = s.result
    val k = TableIIJob.K
    val distinct = r.solution.map(_.id).distinct.size
    if (s.clock.arrivals != s.n) s.fail(s"state saw ${s.clock.arrivals} of ${s.n} arrivals")
    else if (r.solution.size != k || distinct != k) s.fail(s"solution has ${r.solution.size} elements, $distinct distinct; k = $k")
    else ks.indices.find(i => r.solution.count(_.group == i) != ks(i)) match {
      case Some(i) => s.fail(s"group $i has ${r.solution.count(_.group == i)} elements, quota ${ks(i)}")
      case None =>
        val d = Diversity.div(r.solution, metric)
        if (!(math.abs(d - r.diversity) <= 1e-9 * math.max(1.0, d)))
          s.fail(s"reported diversity ${r.diversity} != recomputed $d")
        else if (!(r.diversity > 0 && r.diversity <= 2 * gmmDiv + 1e-9))
          s.fail(s"diversity ${r.diversity} outside (0, 2·div_GMM = ${2 * gmmDiv}]")
    }
  }

  // --------------------------------------------------------------- tracing --

  /** Spans of one solve, from the timestamps taken around its layer calls.
    * Micro-batch spans come from the listener (millisecond timestamps,
    * mapped onto the nanosecond clock through an anchor taken at the start).
    */
  private def record(s: Solve): Unit = {
    val root = trace.add("solve", s.start, s.end, -1, s.id)
    trace.add("bounds", s.start, s.boundsEnd, root, s.id)
    val c = s.clock
    val chunkNs = c.chunkNs
    if (s.batches.isEmpty) {
      val stream = trace.add("stream", s.boundsEnd, c.finishStart, root, s.id)
      chunkNs.indices.foreach(i => trace.add("stream.process", c.chunkStart(i), c.chunkEnd(i), stream, s.id))
      trace.add("post", c.finishStart, c.finishEnd, root, s.id)
    } else {
      val run = trace.add("structured.run", s.boundsEnd, s.end, root, s.id)
      s.batches.zipWithIndex.foreach { case (p, i) =>
        val t0 = s.nanoAnchor + (java.time.Instant.parse(p.timestamp).toEpochMilli - s.wallAnchorMs) * 1000000L
        val b = trace.add("spark.batch", t0, t0 + (duration(p, "triggerExecution") * 1e6).toLong, run, s.id)
        if (i < chunkNs.length) trace.add("stream.process", c.chunkStart(i), c.chunkEnd(i), b, s.id)
      }
      trace.add("post", c.finishStart, c.finishEnd, run, s.id)
    }
  }

  /** Per-layer self time, count and share of the wall time of the root
    * spans of `solveIds` (set-up spans have solve id -1).
    */
  private def printTrace(title: String, solveIds: Seq[Int]): Unit = {
    val ids = solveIds.toSet
    val wall = trace.spans.filter(s => s.parent < 0 && ids.contains(s.solve)).map(_.ns).sum.toDouble
    println(f"# $title: per-layer self time over ${ids.size} solve id(s), ${wall / 1e9}%.3f s of wall time")
    println(f"#   ${"layer"}%-22s ${"count"}%7s ${"self_ms"}%11s ${"share"}%7s")
    trace.selfTable(ids).foreach { case (name, count, self) =>
      val label = if (name == "solve") "(uncovered)" else name
      println(f"#   $label%-22s $count%7d ${self / 1e6}%11.2f ${100 * self / wall}%6.2f%%")
    }
  }

  private def writeTrace(): Unit = {
    val path = a.out.resolve("trace").resolve(s"${w.name}-seed${a.seed}.spans.jsonl")
    trace.write(path)
    println(s"# spans: ${trace.spans.length} written to $path")
  }

  // --------------------------------------------------------------- metrics --

  private def endToEnd(setupNs: Double, good: Seq[Solve], firstPass: Seq[Solve], attempted: Int, failed: Int) = {
    val solveS = good.map(_.solveNs / 1e9)
    val (tailS, pct, count) = tail(solveS)
    notes += f"# solve_tail_s = p$pct%.1f of $count samples (${count - math.ceil(pct / 100 * count).toInt} beyond)"
    val done = firstPass.filter(_.result != null).map(_.result)
    val out = Seq.newBuilder[(String, Double, String)]
    out += (("setup_s", setupNs / 1e9, "s"))
    out += (("solve_s", median(solveS), "s"))
    out += (("solve_tail_s", tailS, "s"))
    out += (("stream_elems_per_s", good.map(_.n.toLong).sum / (good.map(_.streamNs).sum / 1e9), "1/s"))
    out += (("stored_elems", mean(done.map(_.storedElements.toDouble)), "count"))
    out += (("diversity", mean(done.map(_.diversity)), "dist"))
    out += (("ok_frac", (attempted - failed).toDouble / attempted, "frac"))
    out.result()
  }

  private def perLayer(
      sessionNs: Long, genNs: Double, good: Seq[Solve], sp: Seq[Solve], allocMbPerSolve: Double, heapPeakMb: Double,
  ) = {
    val wall = good.map(_.solveNs).sum.toDouble
    val processNs = good.map(_.clock.chunkNs.sum).sum.toDouble
    val traced = good.filter(_.traced)
    val plain = good.filterNot(_.traced)
    // Stream cost per element in each quarter of the stream, by chunk midpoint.
    val quarterNs = new Array[Double](4)
    val quarterN = new Array[Double](4)
    good.foreach { s =>
      s.clock.chunkNs.indices.foreach { c =>
        val q = math.min(3, ((c * chunk + s.clock.chunkSize(c) / 2.0) * 4 / s.n).toInt)
        quarterNs(q) += s.clock.chunkNs(c)
        quarterN(q) += s.clock.chunkSize(c)
      }
    }
    val batches = sp.flatMap(_.batches)
    val foldMs = sp.flatMap(_.clock.chunkNs.map(_ / 1e6).toSeq)
    def batchMean(key: String) = mean(batches.map(duration(_, key)))
    val self = trace.selfNs
    val roots = trace.spans.filter(sp => sp.parent < 0 && sp.solve >= 0 && sp.solve != StructuredPass)
    val out = Seq.newBuilder[(String, Double, String)]
    out += (("spark.session_s", sessionNs / 1e9, "s"))
    out += (("data.generate_collect_s", genNs / 1e9, "s"))
    out += (("data.rows_per_s", n / (genNs / 1e9), "1/s"))
    out += (("bounds.ms", median(good.map(_.boundsNs / 1e6)), "ms"))
    out += (("bounds.share", good.map(_.boundsNs).sum / wall, "frac"))
    out += (("bounds.guesses", median(good.map(_.guesses.toDouble)), "count"))
    out += (("stream.ms", median(good.map(_.streamNs / 1e6)), "ms"))
    out += (("stream.ns_per_elem", processNs / good.map(_.n.toLong).sum, "ns"))
    (0 until 4).foreach(q => out += ((s"stream.ns_per_elem.q${q + 1}", quarterNs(q) / quarterN(q), "ns")))
    out += (("stream.contents_ms", median(traced.map(_.contentsNs / 1e6)), "ms"))
    out += (("metric.dist_ns", distNs(), "ns"))
    out += (("post.ms", median(good.map(_.postNs / 1e6)), "ms"))
    out += (("post.share", good.map(_.postNs).sum / wall, "frac"))
    out += (("structured.batches", mean(sp.map(_.batches.length.toDouble)), "count"))
    out += (("structured.batch_ms", batchMean("triggerExecution"), "ms"))
    out += (("structured.add_batch_ms", batchMean("addBatch"), "ms"))
    out += (("structured.planning_ms", batchMean("queryPlanning"), "ms"))
    out += (("structured.wal_commit_ms", batchMean("walCommit"), "ms"))
    out += (("structured.fold_ms", mean(foldMs), "ms"))
    out += (("structured.spark_overhead_ms", batchMean("addBatch") - mean(foldMs), "ms"))
    out += (("structured.local_baseline_ms", median(sp.map(_.localStreamNs / 1e6)), "ms"))
    out += (("jvm.alloc_mb_per_solve", allocMbPerSolve, "MB"))
    out += (("jvm.heap_peak_mb", heapPeakMb, "MB"))
    out += (("trace.overhead_ms", (median(traced.map(_.solveNs.toDouble)) - median(plain.map(_.solveNs.toDouble))) / 1e6, "ms"))
    out += (("trace.uncovered_share", roots.map(r => self(r.id)).sum.toDouble / roots.map(_.ns).sum, "frac"))
    out.result()
  }

  /** ns per `Metric.dist` call over a fixed list of pairs of this workload's
    * own vectors (median of five timed passes after two warm-up passes).
    */
  private def distNs(): Double = {
    val pairs = 50000
    val rng = new scala.util.Random(a.seed)
    val is = Array.fill(pairs)(rng.nextInt(xs.length))
    val js = Array.fill(pairs)(rng.nextInt(xs.length))
    var sink = 0.0
    def pass(): Double = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < pairs) { sink += metric.dist(xs(is(i)), xs(js(i))); i += 1 }
      (System.nanoTime() - t0).toDouble / pairs
    }
    pass(); pass()
    val r = median(Seq.fill(5)(pass()))
    if (sink < 0) println("") // keeps the loop observable
    r
  }

  // ---------------------------------------------------------------- output --

  /** Hash of the sorted solution ids of every solve of the first pass, in
    * permutation order: the behaviour gate a performance change must keep.
    */
  private def solutionHash(pass: Seq[Solve]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    pass.sortBy(_.perm).foreach { s =>
      val ids = if (s.result == null) "failed" else s.result.solution.map(_.id).sorted.mkString(",")
      md.update(s"${s.perm}:$ids;".getBytes(StandardCharsets.UTF_8))
    }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  private def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String = {
    metrics.foreach { case (name, v, _) => require(!v.isNaN && !v.isInfinite, s"metric $name is $v") }
    val ms = metrics.map { case (name, v, unit) => s""""$name": {"value": $v, "unit": "$unit"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def writeResults(json: String, hash: String, c0: Double, c1: Double, timed: Seq[Solve]): Unit = {
    val path = a.out.resolve("results").resolve(s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    Files.createDirectories(path.getParent)
    val doc =
      s"""{"workload": "${w.name}", "seed": ${a.seed}, "seconds": ${a.seconds}, "master": "${a.master}", """ +
      s""""solution_hash": "$hash", "calibration_ms": {"start": $c0, "end": $c1}, """ +
      s""""solve_ms": [${timed.map(s => f"${s.solveNs / 1e6}%.3f").mkString(", ")}], "result": $json}"""
    Files.write(path, (doc + "\n").getBytes(StandardCharsets.UTF_8))
  }

  /** Bytes allocated so far by this thread, which makes every solve. */
  private def allocatedBytes(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean].getCurrentThreadAllocatedBytes
}
