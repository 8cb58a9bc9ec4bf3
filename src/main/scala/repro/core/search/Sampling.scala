package repro.core.search

import scala.collection.mutable
import scala.util.Random

import repro.core.blocking.BlockingResult
import repro.core.functions.Funcs
import repro.core.model.LocalInstance

/** Random-alignment sampling and greedy value-map induction (§4.3). */
object Sampling {

  /** Shuffle in place with exactly the draws of `Random.shuffle`, so the
    * result equals `rnd.shuffle(a.toVector)` element for element.
    */
  def shuffle(a: Array[Int], rnd: Random): Unit = {
    var n = a.length
    while (n >= 2) {
      val k = rnd.nextInt(n)
      val t = a(n - 1)
      a(n - 1) = a(k)
      a(k) = t
      n -= 1
    }
  }

  /** Sample a random alignment of all records that respects Φ_H: within
    * each mixed block, pair a random permutation of the sources with a
    * random permutation of the targets (Sample-Random-Alignment).
    * Returns (source index, target index) pairs.
    */
  def randomAlignment(blocking: BlockingResult, rnd: Random): Array[(Int, Int)] = {
    val out = mutable.ArrayBuilder.make[(Int, Int)]
    for (b <- blocking.mixed) {
      val s = b.src.clone()
      shuffle(s, rnd)
      val t = b.tgt.clone()
      shuffle(t, rnd)
      for (k <- 0 until math.min(s.length, t.length)) out += ((s(k), t(k)))
    }
    out.result()
  }

  /** Induce-Greedy-Map: map each source value of the attribute to the
    * target value with the highest co-occurrence in the alignment (ties
    * break deterministically by lexicographic order, which is code order).
    * Entries include identity pairs — they still cost 2 parameters each.
    */
  def greedyMap(inst: LocalInstance, alignment: Array[(Int, Int)], attr: Int): Funcs.ValueMap = {
    val dict = inst.dicts(attr)
    // Sorted (source code, target code) pairs: equal pairs are adjacent,
    // and a source code's targets ascend, so `>` keeps the first best.
    val pairs = new Array[Long](alignment.length)
    for (i <- alignment.indices) pairs(i) = (dict.src(alignment(i)._1).toLong << 32) | dict.tgt(alignment(i)._2)
    java.util.Arrays.sort(pairs)
    val bestCount = new Array[Int](dict.size)
    val best = new Array[Int](dict.size)
    var i = 0
    while (i < pairs.length) {
      var j = i + 1
      while (j < pairs.length && pairs(j) == pairs(i)) j += 1
      val sc = (pairs(i) >>> 32).toInt
      if (j - i > bestCount(sc)) { bestCount(sc) = j - i; best(sc) = pairs(i).toInt }
      i = j
    }
    val entries = dict.values.indices.collect {
      case sc if bestCount(sc) > 0 => dict.values(sc) -> dict.values(best(sc))
    }
    Funcs.ValueMap(entries.toMap)
  }
}
