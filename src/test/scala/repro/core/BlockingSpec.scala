package repro.core

import scala.collection.mutable

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers
import repro.core.blocking.{Block, BlockingResult, LocalBlocking}
import repro.core.functions.Funcs._
import repro.core.model.{AttrFunc, LocalInstance, RunningExample}

class BlockingSpec extends AnyFunSuite with PropHelpers {

  private val inst = RunningExample.instance
  // Figure 3's search state H1 = (∗, ∗, ∗, id, ∗, x ↦ 'k $', id).
  private val h1 = Array((3, Identity: AttrFunc), (5, Const("k $"): AttrFunc), (6, Identity: AttrFunc))

  test("Figure 3: block κi = (C, k $, SAP) holds S08,S09,S10 vs T08,T10") {
    val blocks = LocalBlocking.block(inst, h1)
    val b = blocks.blocks.find(b => b.src.exists(i => inst.source(i)(0) == "S08")).get
    assert(b.src.map(i => inst.source(i)(0)).toSet == Set("S08", "S09", "S10"))
    assert(b.tgt.map(i => inst.target(i)(0)).toSet == Set("T08", "T10"))
    assert(b.isMixed)
  }

  test("blocking with no decided attributes yields one block with everything") {
    val blocks = LocalBlocking.block(inst, Array.empty)
    assert(blocks.blocks.length == 1)
    assert(blocks.blocks(0).src.length == 17 && blocks.blocks(0).tgt.length == 16)
  }

  /** κ of a record per Def. 4.3, as values: the decided attributes'
    * projection, through the functions on the source side only.
    */
  private def index(rec: Array[String], decided: Array[(Int, AttrFunc)], isSource: Boolean): Seq[String] =
    decided.toSeq.map { case (a, f) => if (isSource) f(rec(a)) else rec(a) }

  test("source records are indexed through their assigned functions") {
    val b = LocalBlocking.block(inst, h1).blocks.find(_.src.contains(0)).get
    for (s <- b.src) assert(index(inst.source(s), h1, isSource = true) == Seq("A", "k $", "IBM"))
    for (t <- b.tgt) assert(index(inst.target(t), h1, isSource = false) == Seq("A", "k $", "IBM"))
  }

  test("target records are indexed by raw projection") {
    val b = LocalBlocking.block(inst, h1).blocks.find(_.tgt.contains(0)).get
    for (t <- b.tgt) assert(index(inst.target(t), h1, isSource = false) == Seq("A", "k $", "IBM"))
    for (s <- b.src) assert(index(inst.source(s), h1, isSource = true) == Seq("A", "k $", "IBM"))
  }

  test("every record lands in exactly one block") {
    val blocks = LocalBlocking.block(inst, h1)
    assert(blocks.blocks.map(_.src.length).sum == 17)
    assert(blocks.blocks.map(_.tgt.length).sum == 16)
    val allSrc = blocks.blocks.flatMap(_.src)
    assert(allSrc.toSet.size == allSrc.length)
  }

  test("ct counts target surplus per block, cs source surplus") {
    // Two-attribute toy: one block 2 src vs 1 tgt, one block 0 src vs 2 tgt.
    val toy = LocalInstance(
      Vector("a"),
      Array(Array("x"), Array("x")),
      Array(Array("x"), Array("y"), Array("y")))
    val blocks = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocks.ct == 2)
    assert(blocks.cs == 1)
  }

  test("ct/cs are zero when blocks balance") {
    val toy = LocalInstance(Vector("a"), Array(Array("x")), Array(Array("x")))
    val blocks = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocks.ct == 0 && blocks.cs == 0)
  }

  test("indeterminacy is the max distinct in-block source values over mixed blocks") {
    val blocks = LocalBlocking.block(inst, h1)
    // In block (C, k $, IBM): sources S06 (21000) and S07 (422400) — Val has 2 values.
    val indVal = LocalBlocking.indeterminacy(inst, blocks, 4)
    assert(indVal >= 2)
    // Type is already decided — its indeterminacy within blocks is 1.
    assert(LocalBlocking.indeterminacy(inst, blocks, 3) == 1)
  }

  test("indeterminacy falls back to global distinct count without mixed blocks") {
    val toy = LocalInstance(
      Vector("a", "b"),
      Array(Array("x", "1"), Array("y", "2")),
      Array(Array("z", "3")))
    val blocks = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocks.mixed.isEmpty)
    assert(LocalBlocking.indeterminacy(toy, blocks, 1) == 2)
  }

  test("functions change the block key on the source side only") {
    val decided = Array((4, Div(BigDecimal(1000)): AttrFunc))
    val blocks = LocalBlocking.block(inst, decided)
    // Source S01 Val=80000 ↦ 80 groups with targets whose Val is literally 80.
    val b = blocks.blocks.find(_.src.exists(i => inst.source(i)(4) == "80000")).get
    assert(b.src.nonEmpty && b.tgt.nonEmpty)
    assert(b.src.forall(i => decided(0)._2(inst.source(i)(4)) == "80"))
    assert(b.tgt.forall(j => inst.target(j)(4) == "80"))
  }

  test("hostile values never share a block") {
    // null vs the string "null" (a string key would render both as "null").
    val nulls = LocalInstance(Vector("a"), Array(Array[String](null)), Array(Array("null")))
    assert(LocalBlocking.block(nulls, Array((0, Identity))).mixed.isEmpty)
    // A separator character inside values must not make two tuples equal.
    val sep = LocalInstance(Vector("a", "b"), Array(Array("a\u0001b", "c")), Array(Array("a", "b\u0001c")))
    assert(LocalBlocking.block(sep, Array((0, Identity), (1, Identity))).mixed.isEmpty)
  }

  test("property: blocking equals the partition by transformed value tuples") {
    val values = Gen.oneOf[String](null, "null", "", "\u0001", "a", "a\u0001", "A", "1", "01", "2")
    val funcs = Gen.oneOf[AttrFunc](Identity, Upper, Const("a"), Prefix("a"), Add(BigDecimal(1)),
      ValueMap(Map("a" -> "null", "1" -> "a")))
    val gen = for {
      d <- Gen.choose(1, 3)
      ns <- Gen.choose(0, 8)
      nt <- Gen.choose(0, 8)
      source <- Gen.listOfN(ns, Gen.listOfN(d, values).map(_.toArray))
      target <- Gen.listOfN(nt, Gen.listOfN(d, values).map(_.toArray))
      k <- Gen.choose(0, d)
      attrs <- Gen.pick(k, 0 until d).flatMap(as => Gen.pick(as.size, as))
      fs <- Gen.listOfN(attrs.size, funcs)
    } yield (LocalInstance(Vector.tabulate(d)(i => s"a$i"), source.toArray, target.toArray),
      attrs.toSeq.zip(fs).toArray)
    checkProp(Prop.forAll(gen) { case (toy, decided) =>
      // Reference: group by the tuple of values, blocks in first-occurrence
      // order over the sources, then the targets.
      val ref = mutable.LinkedHashMap.empty[Seq[String], (mutable.ArrayBuffer[Int], mutable.ArrayBuffer[Int])]
      def cell(k: Seq[String]) = ref.getOrElseUpdate(k, (mutable.ArrayBuffer.empty[Int], mutable.ArrayBuffer.empty[Int]))
      toy.source.indices.foreach(i => cell(index(toy.source(i), decided, isSource = true))._1 += i)
      toy.target.indices.foreach(j => cell(index(toy.target(j), decided, isSource = false))._2 += j)
      val expected = BlockingResult(ref.values.map { case (s, t) => Block(s.toArray, t.toArray) }.toArray)
      val got = LocalBlocking.block(toy, decided)
      def members(r: BlockingResult) = r.blocks.toSeq.map(b => (b.src.toSeq, b.tgt.toSeq))
      members(got) == members(expected) && got.ct == expected.ct && got.cs == expected.cs
    }, minSuccessful = 300)
  }
}
