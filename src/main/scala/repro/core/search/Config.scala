package repro.core.search

import repro.core.functions.{MetaFunction, MetaFunctions}

/** Initialization strategy for the start-state set H_0 (§4.2). */
sealed trait InitStrategy
object InitStrategy {

  /** H^∅ = {(∗, …, ∗)}. */
  case object Blank extends InitStrategy

  /** H^id — one start state per attribute, assuming that attribute unchanged. */
  case object Id extends InitStrategy

  /** H^s — a single start state computed from overlap scores (requires the
    * caller to provide the overlap-derived id-attribute set; computed by
    * `repro.spark.OverlapMatcher`). Falls back to H^∅ when no overlap pair
    * survives the block-size threshold.
    */
  final case class Overlap(idAttrs: Set[Int]) extends InitStrategy
}

/** Affidavit configuration (§5.2 naming: α, β, ϱ = queueWidth, θ, ρ =
  * confidence).
  *
  * @param alpha       cost balance (Def. 3.10)
  * @param beta        branching factor — attributes polled per extension and
  *                    function candidates kept per attribute
  * @param queueWidth  ϱ — bound of the modified priority queue (§4.6)
  * @param theta       estimated fraction of target records exhibiting the
  *                    effect of the optimal function (§4.4.2)
  * @param confidence  ρ — confidence level for induction sampling
  * @param maxPolls    safety valve for the search loop
  * @param metas       meta-function registry defining F implicitly
  * @param seed        seed for all sampling (runs are reproducible)
  */
final case class AffidavitConfig(
    alpha: Double = 0.5,
    beta: Int = 2,
    queueWidth: Int = 5,
    theta: Double = 0.1,
    confidence: Double = 0.95,
    maxPolls: Int = 100000,
    metas: List[MetaFunction] = MetaFunctions.default,
    seed: Long = 42L,
) {
  require(alpha >= 0 && alpha <= 1, "alpha must be in [0,1]")
  require(beta >= 1 && queueWidth >= 1)

  /** Induction sample size k: smallest k with P(Binom(k, θ) ≥ 5) ≥ ρ
    * (§4.4.2). The matching significance threshold is 5 generations.
    */
  lazy val inductionSampleSize: Int = AffidavitConfig.binomialSampleSize(theta, confidence, 5)

  /** Significance threshold matching `inductionSampleSize`. */
  val significanceCount: Int = 5

  /** Ranking sample size k' from Cochran's formula with z = 1.96, e = 0.05,
    * p = θ (§4.4.3).
    */
  lazy val rankingSampleSize: Int = {
    val z = 1.96
    val e = 0.05
    math.ceil(z * z * theta * (1 - theta) / (e * e)).toInt.max(1)
  }
}

object AffidavitConfig {

  /** Smallest k such that P(X ≥ atLeast) ≥ conf for X ~ Binomial(k, p). */
  def binomialSampleSize(p: Double, conf: Double, atLeast: Int): Int = {
    var k = atLeast
    while (k < 1000000 && pAtLeast(k, p, atLeast) < conf) k += 1
    k
  }

  /** P(X ≥ m) for X ~ Binomial(k, p), computed by summing the lower tail. */
  def pAtLeast(k: Int, p: Double, m: Int): Double = {
    if (m <= 0) return 1.0
    var tail = 0.0
    var i = 0
    while (i < m && i <= k) {
      tail += math.exp(logChoose(k, i) + i * math.log(p) + (k - i) * math.log1p(-p))
      i += 1
    }
    1.0 - tail
  }

  private def logChoose(n: Int, k: Int): Double = {
    var acc = 0.0
    var i = 0
    while (i < k) { acc += math.log(n - i) - math.log(k - i); i += 1 }
    acc
  }

  /** The paper's H^s configuration (§5.2). */
  def hsConfig(seed: Long): AffidavitConfig =
    AffidavitConfig(beta = 1, queueWidth = 1, seed = seed)

  /** The paper's H^id configuration (§5.2). */
  def hidConfig(seed: Long): AffidavitConfig =
    AffidavitConfig(beta = 2, queueWidth = 5, seed = seed)
}
