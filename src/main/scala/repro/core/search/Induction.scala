package repro.core.search

import scala.collection.mutable
import scala.util.Random

import repro.core.blocking.{Block, BlockingResult, Images}
import repro.core.functions.MetaFunction
import repro.core.model.{AttrFunc, Dictionary, LocalInstance}

/** Function-candidate induction and ranking (§4.4.2, §4.4.3). */
object Induction {

  /** Cap on distinct in-block source values tried per sampled target
    * example. The paper tries *every* source record of the block; this cap
    * is a tractability guard for the gigantic blocks of early search states
    * only. It must stay well above typical in-block distinct counts — a
    * tight cap (e.g. 64) samples away the matching source value in large
    * blocks, the correct function misses the significance threshold, and
    * degenerate constants win instead.
    */
  val MaxSrcValuesPerExample = 4096

  /** One search run's induction results: the verified candidates induced
    * from each (source code, target code) example of an attribute, as ids
    * into the attribute's table of distinct candidates (one per
    * `describe`, the first one induced).
    */
  final class Memo(d: Int) {
    private val examples = Array.fill(d)(mutable.LongMap.empty[Array[Int]])
    private val ids = Array.fill(d)(mutable.HashMap.empty[String, Int])
    private val funcs = Array.fill(d)(mutable.ArrayBuffer.empty[AttrFunc])

    def size(attr: Int): Int = funcs(attr).size
    def func(attr: Int, id: Int): AttrFunc = funcs(attr)(id)

    def induced(dict: Dictionary, attr: Int, in: Int, out: Int, metas: List[MetaFunction]): Array[Int] = {
      val key = (in.toLong << 32) | out
      val hit = examples(attr).getOrNull(key)
      if (hit != null) hit
      else {
        val found = metas
          .flatMap(_.induceVerified(dict.values(in), dict.values(out)))
          .map(f => ids(attr).getOrElseUpdate(f.describe, { funcs(attr) += f; funcs(attr).size - 1 }))
          .toArray
        examples(attr).update(key, found)
        found
      }
    }
  }

  /** Induce, significance-filter and rank candidate functions for one
    * attribute from the blocking result; returns the best `beta` candidates
    * in rank order.
    */
  def induceCandidates(inst: LocalInstance, blocking: BlockingResult, attr: Int, cfg: AffidavitConfig, rnd: Random)
      : List[AttrFunc] = induceCandidates(new Images(inst), new Memo(inst.d), blocking, attr, cfg, rnd)

  /** `induceCandidates` with a search run's images and induction memo. */
  def induceCandidates(
      images: Images,
      memo: Memo,
      blocking: BlockingResult,
      attr: Int,
      cfg: AffidavitConfig,
      rnd: Random,
  ): List[AttrFunc] = {
    val dict = images.dicts(attr)
    val mixed = blocking.mixed
    if (mixed.isEmpty) return Nil

    // --- candidate generation from sampled noisy input-output examples ---
    // Pool of (block, target record) pairs over mixed blocks, sampled as
    // positions into the pool.
    val blockPool = new mutable.ArrayBuilder.ofInt
    val targetPool = new mutable.ArrayBuilder.ofInt
    for (b <- mixed.indices; t <- mixed(b).tgt.indices) { blockPool += b; targetPool += mixed(b).tgt(t) }
    val (blockOf, targetOf) = (blockPool.result(), targetPool.result())
    val k = cfg.inductionSampleSize
    val sampled = Array.range(0, blockOf.length)
    if (sampled.length > k) Sampling.shuffle(sampled, rnd)
    val n = math.min(k, sampled.length)

    // Distinct source codes per mixed block in first-occurrence order,
    // computed lazily and cached.
    val srcValues = new Array[Array[Int]](mixed.length)
    val seenIn = new Array[Int](dict.size) // 1 + index of the last block that saw a code
    def srcValuesOf(b: Int): Array[Int] = {
      if (srcValues(b) == null) {
        val seen = new mutable.ArrayBuilder.ofInt
        for (i <- mixed(b).src.indices) {
          val c = dict.src(mixed(b).src(i))
          if (seenIn(c) != b + 1) { seenIn(c) = b + 1; seen += c }
        }
        val all = seen.result()
        if (all.length > MaxSrcValuesPerExample) Sampling.shuffle(all, rnd)
        srcValues(b) = all.take(MaxSrcValuesPerExample)
      }
      srcValues(b)
    }

    // Per candidate id: the number of sampled targets that generated it,
    // and the last one (1-based) that did.
    var counts = new Array[Int](memo.size(attr) + 64)
    var lastTarget = new Array[Int](counts.length)
    for (si <- 0 until n) {
      val vals = srcValuesOf(blockOf(sampled(si)))
      val out = dict.tgt(targetOf(sampled(si)))
      for (vi <- vals.indices) {
        val found = memo.induced(dict, attr, vals(vi), out, cfg.metas)
        if (memo.size(attr) > counts.length) {
          counts = java.util.Arrays.copyOf(counts, 2 * memo.size(attr))
          lastTarget = java.util.Arrays.copyOf(lastTarget, counts.length)
        }
        for (fi <- found.indices)
          if (lastTarget(found(fi)) != si + 1) { lastTarget(found(fi)) = si + 1; counts(found(fi)) += 1 }
      }
    }

    // --- significance filter (Binomial(θ) rationale, DESIGN.md §3) ---
    val threshold =
      if (n >= k) cfg.significanceCount
      else math.max(1, math.ceil(cfg.theta * n / 2.0).toInt)
    val survivors = (0 until memo.size(attr)).filter(counts(_) >= threshold).map(memo.func(attr, _)).toArray
    if (survivors.isEmpty) return Nil

    // --- ranking by sampled histogram overlap minus description length ---
    val ranked = rankByOverlap(images, mixed, attr, survivors, cfg, rnd)
    ranked.take(cfg.beta).toList
  }

  /** Rank candidates by the estimated number of records they would align:
    * sample k' source records, dedupe their blocks, and on each block
    * compare the histogram of transformed source values against the block's
    * target-value histogram (sum of per-value minimum frequencies). The
    * final rank key is total overlap minus ψ, descending.
    */
  def rankByOverlap(
      images: Images,
      mixed: Array[Block],
      attr: Int,
      candidates: Array[AttrFunc],
      cfg: AffidavitConfig,
      rnd: Random,
  ): Array[AttrFunc] = {
    // Pool of (block, source record) pairs, as the block index repeated
    // once per source record.
    val pool = new mutable.ArrayBuilder.ofInt
    for (b <- mixed.indices; _ <- mixed(b).src.indices) pool += b
    val weighted = pool.result()
    val kPrime = cfg.rankingSampleSize
    if (weighted.length > kPrime) Sampling.shuffle(weighted, rnd)
    val chosenBlocks = weighted.take(kPrime).distinct

    val imgs = candidates.map(images.image(attr, _))
    val overlaps = new Array[Long](candidates.length)
    for (b <- chosenBlocks; ci <- candidates.indices)
      overlaps(ci) += images.matched(attr, imgs(ci), mixed(b).src, mixed(b).tgt)
    candidates.zipWithIndex
      .sortBy { case (f, i) => (-(overlaps(i) - f.psi).toDouble, f.psi, f.describe) }
      .map(_._1)
  }
}
