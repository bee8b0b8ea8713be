package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import scala.util.Try

/** The stream phase of [[Part.offer]], which offers an arrival only to the
  * live candidates and wakes dormant ones, against [[ReferenceBank]], which
  * offers every arrival to every candidate, on adversarial streams. Both build
  * the same candidates with the same evaluations, and `finish()` gives the
  * same result, unless all points coincide, which `finish()` rejects. A
  * fair SFDM1 or SFDM2 result meets every quota, a group below its quota
  * gives an unfair one, no candidate holds a slot twice, and the
  * stored-element count is the number of distinct slots the candidates hold.
  */
class StreamPhaseSpec extends AnyFunSuite with PropSupport {

  /** One stream and the bank to run it: `algo` 0 is Algorithm 1 with
    * k = `ks.sum`, 1 is SFDM1, 2 is SFDM2.
    */
  final case class Case(algo: Int, ks: IndexedSeq[Int], metric: Metric, eps: Double, bounds: DistanceBounds, stream: IndexedSeq[Element]) {
    def bank(): CandidateBank = algo match {
      case 0 => new StreamingDM(ks.sum, eps, bounds, metric)
      case 1 => new SFDM1(ks(0), ks(1), eps, bounds, metric)
      case _ => new SFDM2(ks, eps, bounds, metric)
    }
    override def toString: String =
      s"Case(algo $algo, ks $ks, ${metric.name}, eps $eps, $bounds, ${stream.map(e => s"${e.id}/g${e.group}/${e.features.mkString("(", ",", ")")}").mkString(" ")})"
  }

  private val quota = Gen.choose(1, 3)

  /** Algorithm and quotas; Algorithm 1 needs k ≥ 2. */
  private val algoGen: Gen[(Int, IndexedSeq[Int])] = Gen.oneOf(0, 1, 2).flatMap {
    case 0 => Gen.choose(2, 5).map(k => (0, IndexedSeq(k)))
    case 1 => Gen.zip(quota, quota).map { case (a, b) => (1, IndexedSeq(a, b)) }
    case _ => Gen.choose(1, 3).flatMap(m => Gen.listOfN(m, quota)).map(ks => (2, ks.toIndexedSeq))
  }

  /** Features: uniform reals, or a 3×3×… lattice on which points coincide. */
  private def featureGen(dim: Int, lattice: Boolean): Gen[Array[Double]] =
    Gen.listOfN(dim, if (lattice) Gen.choose(0, 2).map(_ * 0.5) else Gen.choose(-1.0, 1.0)).map(_.toArray)

  /** A case whose elements take groups from `groups` (the quotas' groups
    * unless given) and whose stream `shape` then rearranges.
    */
  private def caseGen(
      algos: Gen[(Int, IndexedSeq[Int])] = algoGen,
      metrics: Gen[Metric] = Gen.oneOf(Euclidean, Manhattan, Angular),
      lattice: Gen[Boolean] = Gen.oneOf(false, true),
      groups: IndexedSeq[Int] => Gen[IndexedSeq[Int]] = ks => Gen.const(ks.indices),
  )(shape: (IndexedSeq[Element], Metric) => Gen[IndexedSeq[Element]]): Gen[Case] = for {
    (algo, ks) <- algos
    metric <- metrics
    eps <- Gen.oneOf(0.05, 0.1, 0.25)
    dmin <- Gen.choose(0.02, 0.6)
    ratio <- Gen.choose(1.0, 100.0)
    n <- Gen.choose(1, 50)
    dim <- Gen.choose(2, 3)
    onLattice <- lattice
    present <- groups(ks)
    feats <- Gen.listOfN(n, featureGen(dim, onLattice))
    gs <- Gen.listOfN(n, Gen.oneOf(present))
    xs = feats.indices.map(i => Element(i.toLong, if (algo == 0) 0 else gs(i), feats(i))).toIndexedSeq
    stream <- shape(xs, metric)
  } yield Case(algo, ks, metric, eps, DistanceBounds(dmin, dmin * ratio), stream)

  private def asIs(xs: IndexedSeq[Element], @annotation.unused m: Metric): Gen[IndexedSeq[Element]] = Gen.const(xs)

  /** Ids of the elements in candidate j of part p, in insertion order. */
  private def ids(bank: CandidateBank, p: Part, j: Int): Seq[Long] = p.slots(j).map(bank.memo.element(_).id).toSeq

  /** Runs the bank and the reference on the case's stream and compares;
    * `finish()` must succeed unless all points coincide.
    */
  private def agree(c: Case): Boolean = {
    val st = c.bank()
    val ref = c.bank()
    c.stream.foreach(st.process)
    val refOffers = c.stream.iterator.map(ReferenceBank.process(ref, _)).sum
    for (((p, q), i) <- ((st.blind +: st.groups) zip (ref.blind +: ref.groups)).zipWithIndex; j <- st.guesses.indices) {
      assert(p.slots(j).toSeq == q.slots(j).toSeq && ids(st, p, j) == ids(ref, q, j), s"part $i, guess $j")
      assert(p.slots(j).distinct.length == p.size(j), s"part $i, guess $j holds a slot twice: ${p.slots(j).toSeq}")
    }
    assert(st.memo.evals == ref.memo.evals, "stream-phase evaluations")
    val x0 = c.stream.head
    val coincide = c.stream.length >= 2 && st.k >= 2 && c.stream.forall(x => c.metric.dist(x, x0) == 0.0)
    val got = Try(st.finish())
    if (coincide) {
      val e = got.failed.get
      assert(e.isInstanceOf[IllegalArgumentException] && e.getMessage.contains("all points coincide"), e.toString)
    } else {
      assert(got.isSuccess, s"finish() failed: $got")
      val a = got.get
      if (c.algo != 0) {
        if (a.fair)
          assert(a.solution.size == st.k && c.ks.indices.forall(i => a.groupCounts.getOrElse(i, 0) == c.ks(i)), s"quotas ${c.ks}, got ${a.groupCounts}")
        val short = c.ks.indices.filter(i => c.stream.count(_.group == i) < c.ks(i))
        assert(short.isEmpty || !a.fair, s"groups $short are below their quotas ${c.ks}, yet the result is fair")
      }
      val b = ref.finish()
      assert(a.solution.map(_.id) == b.solution.map(_.id), "solution ids")
      assert(java.lang.Double.doubleToLongBits(a.diversity) == java.lang.Double.doubleToLongBits(b.diversity), s"diversity ${a.diversity} vs ${b.diversity}")
      assert(a.fair == b.fair, "fair")
      assert(a.streamEvals == b.streamEvals && a.postEvals == b.postEvals, "evaluations")
      assert(a.streamOffers <= refOffers, s"${a.streamOffers} offers, the reference made $refOffers")
    }
    true
  }

  private def check(g: Gen[Case]): Unit =
    checkProp(Prop.forAll(g)(agree), minSuccessful = 400)

  private val duplicateIds = caseGen() { (xs, _) =>
    Gen.listOfN(xs.length / 2 + 1, Gen.zip(Gen.oneOf(xs), Gen.choose(0, xs.length), Gen.oneOf(true, false))).map { dups =>
      dups.foldLeft(xs) { case (s, (x, at, same)) =>
        val y = if (same) x else Element(x.id, x.group, x.features.map(_ + 0.5))
        s.patch(at, Seq(y), 0)
      }
    }
  }
  private val coincident = caseGen(lattice = Gen.const(true)) { (xs, _) =>
    Gen.oneOf(xs, xs.map(x => Element(x.id, x.group, xs.head.features.clone())))
  }
  private val absentGroup = caseGen(
    algos = algoGen.suchThat(_._2.length >= 2),
    groups = ks => Gen.choose(0, ks.length - 1).map(absent => ks.indices.filter(_ != absent)),
  )(asIs)
  private val sortedFromFirst = caseGen(lattice = Gen.const(false)) { (xs, m) =>
    Gen.const(xs.head +: xs.tail.sortBy(x => m.dist(x, xs.head)))
  }
  private val quotaOne = caseGen(algos = Gen.oneOf((1, 1), (1, 2), (3, 1)).map { case (a, b) => (1, IndexedSeq(a, b)) })(asIs)
  // An element scaled to overflow arrives once, or twice in a row as the same
  // object, whose distance to itself is then NaN.
  private val overflowing = caseGen(metrics = Gen.const(Angular)) { (xs, _) =>
    Gen.listOfN(xs.length, Gen.oneOf(0, 0, 1, 2)).map { big =>
      xs.indices.flatMap { i =>
        if (big(i) == 0) Seq(xs(i))
        else { val y = Element(xs(i).id, xs(i).group, xs(i).features.map(_ * 1e200)); Seq.fill(big(i))(y) }
      }
    }
  }

  // Each group i keeps at most its first k_i − 1 arrivals, or none; at least
  // one arrival is left.
  private val belowQuota = caseGen(algos = algoGen.suchThat(_._1 != 0))(asIs).flatMap { c =>
    Gen.choose(0, c.ks.length - 1).flatMap(i => Gen.choose(0, c.ks(i) - 1).map { keep =>
      val cut = c.stream.filter(_.group == i).drop(keep).toSet
      c.copy(stream = c.stream.filterNot(cut))
    })
  }.suchThat(_.stream.nonEmpty)

  test("duplicate ids, as the same element again or with other features, give the reference's candidates and result") {
    check(duplicateIds)
  }

  test("coincident points, and streams whose points all coincide, give the reference's candidates and result") {
    check(coincident)
  }

  test("a group that never arrives gives the reference's candidates and result") {
    check(absentGroup)
  }

  test("arrivals sorted by distance from the first, which wake one guess at a time, give the reference's candidates and result") {
    check(sortedFromFirst)
  }

  test("SFDM1 with a quota of 1, whose candidates of capacity 1 are never dormant, gives the reference's candidates and result") {
    check(quotaOne)
  }

  test("Angular features whose squares overflow, which give NaN distances, give the reference's candidates and result") {
    check(overflowing)
  }

  test("SFDM1 and SFDM2 with a group below its quota give the reference's candidates and an unfair result") {
    check(belowQuota)
  }

  test("storedElementCount equals contents.size and the distinct slots held across all parts, on each stream above") {
    val any = Gen.oneOf(duplicateIds, coincident, absentGroup, sortedFromFirst, quotaOne, overflowing)
    checkProp(Prop.forAll(any) { c =>
      val st = c.bank()
      c.stream.foreach(st.process)
      val held = (st.blind +: st.groups).flatMap(p => st.guesses.indices.flatMap(p.slots(_))).distinct.length
      assert(st.storedElementCount == st.contents.size && st.contents.size == held,
        s"storedElementCount ${st.storedElementCount}, contents ${st.contents.size}, distinct slots $held")
      true
    }, minSuccessful = 400)
  }
}
