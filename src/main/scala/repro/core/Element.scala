package repro.core

/** A stream element: a point in a metric space tagged with its demographic group.
  *
  * @param id       a label, stable across permutations of the stream, that the
  *                 algorithms read only to break ties deterministically and to
  *                 name an element in messages. They identify a stored element
  *                 by its arrival (its [[DistanceMemo]] slot), not by its id:
  *                 a stream that repeats an id can return two elements with
  *                 that id.
  * @param group    0-based group index in `[0, m)` assigned by the sensitive
  *                 attribute (the paper's `c(x)`)
  * @param features coordinate vector; its interpretation depends on the
  *                 [[Metric]] in use (Euclidean / Manhattan / Angular)
  */
final case class Element(id: Long, group: Int, features: Array[Double]) {
  /** `Σ fᵢ²`, computed once as `Element.dot(features, features)`; [[Angular]]
    * reads it instead of summing the squares again, and gets the same double.
    */
  val sqNorm: Double = Element.dot(features, features)

  /** Equality by id only: feature arrays use reference equality by default.
    * The algorithms do not compare elements; this serves callers whose ids
    * are unique.
    */
  override def equals(other: Any): Boolean = other match {
    case e: Element => e.id == id
    case _          => false
  }
  override def hashCode(): Int = java.lang.Long.hashCode(id)

  override def toString: String =
    s"Element($id, g$group, [${features.take(4).map(v => f"$v%.3f").mkString(",")}${if (features.length > 4) ",…" else ""}])"
}

object Element {
  /** `Σ aᵢ·bᵢ` over the indices of `a`, accumulated in index order. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Rejects `x` with an `IllegalArgumentException` naming its id if a
    * feature is not finite or, for `dim` ≥ 0, if it does not have `dim`
    * features (the first element's count). A finite `sqNorm` proves every
    * feature finite, so only the rare element whose norm is not finite is
    * scanned.
    */
  def validate(x: Element, dim: Int): Unit = {
    require(java.lang.Double.isFinite(x.sqNorm) || x.features.forall(java.lang.Double.isFinite(_)),
      s"element ${x.id} has a non-finite feature")
    require(dim < 0 || x.features.length == dim, s"element ${x.id} has ${x.features.length} features, the first had $dim")
  }
}
