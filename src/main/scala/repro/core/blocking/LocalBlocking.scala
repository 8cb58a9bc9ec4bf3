package repro.core.blocking

import repro.core.model.{AttrFunc, Dictionary, LocalInstance}

/** One block of the blocking result Φ_H (Def. 4.4): the source and target
  * record indices, each ascending, that share a blocking index κ under the
  * current state.
  */
final case class Block(src: Array[Int], tgt: Array[Int]) {
  def isMixed: Boolean = src.length > 0 && tgt.length > 0
}

/** The full blocking result plus the state-cost lower bounds derived from
  * it (§4.5): `ct` counts target records that can no longer be aligned,
  * `cs` counts source records that can no longer be aligned.
  */
final case class BlockingResult(blocks: Array[Block]) {
  lazy val mixed: Array[Block] = blocks.filter(_.isMixed)

  def ct: Int = { var acc = 0; for (b <- blocks) acc += math.max(0, b.tgt.length - b.src.length); acc }

  def cs: Int = { var acc = 0; for (b <- blocks) acc += math.max(0, b.src.length - b.tgt.length); acc }
}

/** The instance's dictionary codes as one search run sees them: each
  * function's image of an attribute is computed once per run, by applying
  * the function once per distinct source value. Images that occur in
  * neither snapshot get fresh codes (≥ the dictionary size, one per
  * distinct value), so equal codes mean equal values.
  */
final class Images(val inst: LocalInstance) {
  val dicts: Array[Dictionary] = inst.dicts

  private val cache = Array.fill(inst.d)(new java.util.HashMap[AttrFunc, Array[Int]]())
  private val fresh = Array.fill(inst.d)(new java.util.HashMap[String, Integer]())
  // Per-code target counts of one block; all zero between calls.
  private val counts = new Array[Int](dicts.iterator.map(_.size).maxOption.getOrElse(0))

  /** `image(c)` is the code of `f(v)` for every source value `v` with
    * code `c`; entries of codes that occur only in T are unused.
    */
  def image(attr: Int, f: AttrFunc): Array[Int] = cache(attr).computeIfAbsent(f, _ => {
    val dict = dicts(attr)
    val img = new Array[Int](dict.size)
    for (c <- dict.srcDistinct) {
      val v = f(dict.values(c))
      val code = dict.code(v)
      img(c) = if (code >= 0) code else fresh(attr).computeIfAbsent(v, _ => dict.size + fresh(attr).size)
    }
    img
  })

  /** Records of one block the image aligns: the sum over values of
    * min(#sources whose image has the value, #targets with the value).
    */
  def matched(attr: Int, img: Array[Int], src: Array[Int], tgt: Array[Int]): Int = {
    val dict = dicts(attr)
    for (j <- tgt.indices) counts(dict.tgt(tgt(j))) += 1
    var m = 0
    for (i <- src.indices) {
      val c = img(dict.src(src(i)))
      if (c < counts.length && counts(c) > 0) { counts(c) -= 1; m += 1 }
    }
    for (j <- tgt.indices) counts(dict.tgt(tgt(j))) = 0
    m
  }
}

/** Driver-side blocking engine (checked against DuckDB's aggregation in
  * tests).
  */
object LocalBlocking {

  /** Build Φ_H for the given decided assignments, `decided` holding
    * (attribute index, function) pairs. With no decided attributes every
    * record falls into one block.
    */
  def block(inst: LocalInstance, decided: Array[(Int, AttrFunc)]): BlockingResult =
    block(new Images(inst), decided)

  /** Φ_H by partition refinement over codes (Paige & Tarjan, 1987): every
    * decided attribute splits each block by the attribute's code, the
    * image code on the source side (Def. 4.3). Each step numbers the new
    * blocks in first-occurrence order over the sources, then the targets,
    * so the blocks come out ordered by their first record.
    */
  def block(images: Images, decided: Array[(Int, AttrFunc)]): BlockingResult = {
    val ns = images.inst.source.length
    val n = ns + images.inst.target.length
    val ids = new Array[Int](n) // block id per record: sources, then targets
    var count = if (n == 0) 0 else 1
    val pairs = new PairIds(n)
    for ((a, f) <- decided) {
      val img = images.image(a, f)
      val dict = images.dicts(a)
      pairs.clear()
      for (r <- 0 until n) {
        val code = if (r < ns) img(dict.src(r)) else dict.tgt(r - ns)
        ids(r) = pairs.id((ids(r).toLong << 32) | code)
      }
      count = pairs.size
    }

    // Gather the members: count per block, then fill back to front so
    // each block's records stay ascending.
    val srcN = new Array[Int](count)
    val tgtN = new Array[Int](count)
    for (r <- 0 until n) if (r < ns) srcN(ids(r)) += 1 else tgtN(ids(r)) += 1
    val blocks = Array.tabulate(count)(b => Block(new Array[Int](srcN(b)), new Array[Int](tgtN(b))))
    for (r <- n - 1 to 0 by -1) {
      val b = ids(r)
      if (r < ns) { srcN(b) -= 1; blocks(b).src(srcN(b)) = r }
      else { tgtN(b) -= 1; blocks(b).tgt(tgtN(b)) = r - ns }
    }
    BlockingResult(blocks)
  }

  /** Dense ids for (block id, code) keys in first-occurrence order: an
    * open-addressing table sized for `n` distinct keys.
    */
  private final class PairIds(n: Int) {
    private val mask = Integer.highestOneBit(2 * n + 1) * 2 - 1
    private val keys = new Array[Long](mask + 1)
    private val vals = new Array[Int](mask + 1)
    var size = 0

    def clear(): Unit = { java.util.Arrays.fill(keys, -1L); size = 0 }

    def id(key: Long): Int = {
      var i = ((key * 0x9E3779B97F4A7C15L) >>> 32).toInt & mask
      while (keys(i) != -1L && keys(i) != key) i = (i + 1) & mask
      if (keys(i) == -1L) { keys(i) = key; vals(i) = size; size += 1 }
      vals(i)
    }
  }

  /** Indeterminacy of an undecided attribute under Φ_H (§4.3): the maximum
    * number of distinct source values of the attribute over mixed blocks —
    * an upper bound on how many source values must be considered as the
    * origin of a target value. Falls back to the global distinct count when
    * no block is mixed.
    */
  def indeterminacy(inst: LocalInstance, blocking: BlockingResult, attr: Int): Int = {
    val dict = inst.dicts(attr)
    val mixed = blocking.mixed
    val seenIn = new Array[Int](dict.size) // 1 + index of the last block that saw a code
    var best = if (mixed.isEmpty) dict.srcDistinct.length else 0
    for (i <- mixed.indices) {
      var distinct = 0
      for (s <- mixed(i).src.indices) {
        val c = dict.src(mixed(i).src(s))
        if (seenIn(c) != i + 1) { seenIn(c) = i + 1; distinct += 1 }
      }
      best = math.max(best, distinct)
    }
    best
  }
}
