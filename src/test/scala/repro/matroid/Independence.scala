package repro.matroid

/** Independence in a [[PartitionMatroid]], read from its part arrays: the
  * oracle that the matroid specs check Algorithm 4 and the axioms against.
  */
object Independence {

  /** Is the set of ground positions `s` independent in `m`? */
  def apply(m: PartitionMatroid, s: Seq[Int]): Boolean =
    s.groupBy(m.partAt).forall { case (p, ps) => ps.size <= m.capOf(p) }
}
