package repro.core

import repro.{Oracle, SparkSpec, TestGen}

/** `div`, `d(x,S)`, and the brute-force oracles — including a DuckDB oracle
  * check that Spark SQL computes the same minimum pairwise distance.
  */
class DiversitySpec extends SparkSpec {

  private def el(id: Long, g: Int, xs: Double*) = Element(id, g, xs.toArray)

  test("div of a known configuration") {
    val s = Seq(el(0, 0, 0, 0), el(1, 0, 3, 4), el(2, 0, 0, 1))
    assert(math.abs(Diversity.div(s, Euclidean) - 1.0) < 1e-12)
  }

  test("div is +∞ for singleton and empty sets") {
    assert(Diversity.div(Seq(el(0, 0, 1.0)), Euclidean).isPosInfinity)
    assert(Diversity.div(Seq.empty, Euclidean).isPosInfinity)
  }

  test("div is monotonically non-increasing under insertion") {
    val rng = new scala.util.Random(7)
    for (_ <- 0 until 50) {
      val xs = TestGen.randomElements(8, 1, 3, rng.nextLong())
      val d1 = Diversity.div(xs.take(5), Euclidean)
      val d2 = Diversity.div(xs.take(6), Euclidean)
      assert(d2 <= d1 + 1e-12)
    }
  }

  test("distToSet is the minimum over the set; +∞ on empty") {
    val s = Seq(el(0, 0, 0, 0), el(1, 0, 10, 0))
    assert(math.abs(Oracle.distToSet(el(9, 0, 1, 0), s, Euclidean) - 1.0) < 1e-12)
    assert(Oracle.distToSet(el(9, 0, 1, 0), Nil, Euclidean).isPosInfinity)
  }

  test("bruteForceOpt equals div of bruteforce argmax on a hand instance") {
    // 4 corners of a unit square + center; best 4 of 5 are the corners (div 1).
    val xs = IndexedSeq(el(0, 0, 0, 0), el(1, 0, 0, 1), el(2, 0, 1, 0), el(3, 0, 1, 1), el(4, 0, 0.5, 0.5))
    assert(math.abs(Oracle.bruteForceOpt(xs, 4, Euclidean) - 1.0) < 1e-12)
  }

  test("bruteForceFairOpt ≤ bruteForceOpt (fairness can only cost diversity)") {
    val rng = new scala.util.Random(11)
    for (_ <- 0 until 20) {
      val xs = TestGen.randomElements(10, 2, 2, rng.nextLong(), minPerGroup = 2)
      val fair = Oracle.bruteForceFairOpt(xs, IndexedSeq(2, 2), Euclidean)
      val free = Oracle.bruteForceOpt(xs, 4, Euclidean)
      assert(fair <= free + 1e-12)
    }
  }

  test("bruteForceFairOpt returns -∞ when quotas are infeasible") {
    val xs = IndexedSeq(el(0, 0, 0.0), el(1, 0, 1.0))
    assert(Oracle.bruteForceFairOpt(xs, IndexedSeq(1, 1), Euclidean).isNegInfinity)
  }

  test("Oracle: Spark SQL min pairwise Euclidean distance matches DuckDB and Diversity.div") {
    import spark.implicits._
    val xs = TestGen.randomElements(40, 1, 2, seed = 5)
    val df = xs.map(e => (e.id, e.features(0), e.features(1))).toDF("id", "x", "y")
    df.createOrReplaceTempView("pts")
    val sql =
      """SELECT min(sqrt((CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) * (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))
        |             + (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) * (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)))) AS mindist
        |FROM pts a, pts b WHERE CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)""".stripMargin
    val sparkDf = spark.sql(sql)
    Oracle.assertEquivalent(sparkDf, sql, "pts" -> df)
    val viaSql = sparkDf.head().getDouble(0)
    assert(math.abs(viaSql - Diversity.div(xs, Euclidean)) < 1e-9)
  }

  test("Oracle: Spark SQL min pairwise Manhattan distance matches DuckDB and Diversity.div") {
    import spark.implicits._
    val xs = TestGen.randomElements(30, 1, 2, seed = 17)
    val df = xs.map(e => (e.id, e.features(0), e.features(1))).toDF("id", "x", "y")
    df.createOrReplaceTempView("ptsm")
    val sql =
      """SELECT min(abs(CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) + abs(CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE))) AS mindist
        |FROM ptsm a, ptsm b WHERE CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)""".stripMargin
    val sparkDf = spark.sql(sql)
    Oracle.assertEquivalent(sparkDf, sql, "ptsm" -> df)
    val viaSql = sparkDf.head().getDouble(0)
    assert(math.abs(viaSql - Diversity.div(xs, Manhattan)) < 1e-9)
  }
}
