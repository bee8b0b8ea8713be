package repro.core

/** Result of a (fair) diversity-maximization run.
  *
  * @param solution       the selected subset
  * @param diversity      `div(solution)`
  * @param fair           `|solution| = k` and, for SFDM1 and SFDM2,
  *                       `|solution ∩ X_i| = k_i` for every group i; false
  *                       when the fallback produced it
  * @param storedElements number of elements the algorithm held in memory
  *                       (the paper's "#elem" column in Table II)
  * @param streamNanos    wall time of the one-pass stream-processing phase:
  *                       from the first arrival to the start of `finish()`.
  *                       It is one interval, not a sum over arrivals, so it
  *                       includes whatever the caller does between arrivals;
  *                       for a Structured Streaming run, Spark's time
  *                       between micro-batch folds
  * @param postNanos      wall time of the post-processing phase
  * @param streamEvals    metric evaluations of the stream phase
  * @param streamOffers   candidates the stream phase offered an arrival to
  *                       (see [[Part.offers]])
  * @param postEvals      metric evaluations of post-processing, including
  *                       the reported diversity
  */
final case class FdmResult(
    solution: Vector[Element],
    diversity: Double,
    fair: Boolean,
    storedElements: Int,
    streamNanos: Long,
    postNanos: Long,
    streamEvals: Long,
    streamOffers: Long,
    postEvals: Long,
) {
  def totalSeconds: Double = (streamNanos + postNanos) / 1e9

  /** Group histogram of the solution — fairness checks read this. */
  def groupCounts: Map[Int, Int] = solution.groupBy(_.group).view.mapValues(_.size).toMap
}

/** Mutable one-pass streaming state shared by Algorithm 1, SFDM1, and SFDM2:
  * feed elements with [[process]], then call [[finish]] exactly once.
  *
  * Implementations keep only the per-guess candidates (memory independent of
  * the stream length), so a single instance can be driven equally well by a
  * local iterator or a Structured Streaming `foreachBatch` sink.
  */
trait FdmState extends Serializable {
  def process(x: Element): Unit

  /** Convenience bulk feed (still strictly one pass, in iterator order). */
  final def processAll(xs: IterableOnce[Element]): Unit = {
    val it = xs.iterator
    while (it.hasNext) process(it.next())
  }

  /** Run post-processing and return the final solution. A state that saw
    * no arrival throws an `IllegalStateException`.
    */
  def finish(): FdmResult

  /** The elements currently stored across all candidates, each once. */
  def contents: IndexedSeq[Element]

  /** `|contents|`: the memory figure reported as [[FdmResult.storedElements]]. */
  def storedElementCount: Int = contents.size
}
