package repro.core

/** The stream loop that [[Part.offer]] replaced, kept as its reference.
  *
  * Every arrival is offered to every blind candidate and to every candidate
  * of its group, guess by guess in ascending order, and each candidate that
  * is not full scans its elements (`Part.distTo`, with its early exit). The
  * loop drives a bank's parts directly, so it bypasses
  * [[CandidateBank.process]] and the parts' live and dormant bookkeeping;
  * `finish()` then post-processes the candidates this loop built.
  */
object ReferenceBank {

  /** Offers `x` to every candidate of its parts and returns how many that was. */
  def process(bank: CandidateBank, x: Element): Long = {
    val g = if (bank.groups.isEmpty) None else Some(bank.groups(x.group))
    var offers = 0L
    bank.guesses.indices.foreach { j =>
      (Some(bank.blind) ++ g).foreach { p =>
        if (!p.isFull(j) && p.distTo(j, x) >= p.mu(j)) p.add(j)
        offers += 1
      }
    }
    offers
  }
}
