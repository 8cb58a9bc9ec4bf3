package repro.core.search

import repro.core.model.AttrFunc

/** Assignment of one attribute inside a search state (Def. 4.1). */
sealed trait Slot
object Slot {

  /** `∗` — the function of the attribute is still undecided. */
  case object Star extends Slot

  /** A concrete function assignment. */
  final case class Decided(f: AttrFunc) extends Slot
}

/** A search state H ∈ H_I: a d-tuple of slots. */
final case class State(slots: Vector[Slot]) {
  import Slot._

  def d: Int = slots.length

  /** Number of decided attributes — the lattice level used by the queue. */
  lazy val level: Int = slots.count(_.isInstanceOf[Decided])

  def isEnd: Boolean = slots.forall(_.isInstanceOf[Decided])

  def undecided: Vector[Int] = slots.indices.toVector.filter(i => slots(i) == Star)

  /** (attribute index, function) pairs for blocking. */
  def decided: Array[(Int, AttrFunc)] =
    slots.indices.collect { case i if slots(i).isInstanceOf[Decided] =>
      (i, slots(i).asInstanceOf[Decided].f)
    }.toArray

  def assign(attr: Int, f: AttrFunc): State = copy(slots = slots.updated(attr, Decided(f)))

  /** Σ ψ over decided assignments — the c_f component of the state cost. */
  def cf: Int = slots.collect { case Decided(f) => f.psi }.sum

  /** Stable signature for duplicate detection in the queue. */
  lazy val signature: String =
    slots.zipWithIndex.collect { case (Decided(f), i) => s"$i=${f.describe}" }.mkString(";")
}

object State {

  /** H^∅-style blank state. */
  def blank(d: Int): State = State(Vector.fill(d)(Slot.Star))
}
