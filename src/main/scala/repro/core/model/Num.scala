package repro.core.model

import java.math.MathContext

/** Canonical decimal arithmetic for numeric meta functions.
  *
  * All numeric transformations (addition, multiplication, division) parse
  * and re-render values through this object so that the induced function,
  * the reference transformation used to generate problem instances, and the
  * Spark UDF path all produce byte-identical strings (`65 / 1000` renders as
  * `"0.065"`, `6540 / 1000` as `"6.54"`, `80000 + 0` as `"80000"`).
  */
object Num {

  /** Rounding context for division, which may be non-terminating. */
  val Ctx: MathContext = MathContext.DECIMAL64

  /** Parse a plain decimal string, `[+-]?\d{1,18}(\.\d{1,12})?` with ASCII
    * digits after trimming; `None` for anything else, including tokens
    * longer than 24 characters (guards induction against huge tokens).
    */
  def parse(s: String): Option[BigDecimal] = {
    val t = if (s == null) "" else s.trim
    def digitsFrom(i: Int): Int = {
      var j = i
      while (j < t.length && t.charAt(j) >= '0' && t.charAt(j) <= '9') j += 1
      j - i
    }
    val start = if (t.startsWith("+") || t.startsWith("-")) 1 else 0
    val dot = start + digitsFrom(start) // end of the integer digits
    val end = if (dot < t.length && t.charAt(dot) == '.') dot + 1 + digitsFrom(dot + 1) else dot
    val ok = t.length <= 24 && end == t.length && dot - start >= 1 && dot - start <= 18 &&
      (end == dot || end - dot - 1 >= 1 && end - dot - 1 <= 12)
    if (ok) Some(BigDecimal(t)) else None
  }

  /** Canonical rendering: no trailing zeros, no exponent, `-0 → 0`. */
  def canon(b: BigDecimal): String = {
    val stripped = b.underlying.stripTrailingZeros
    val normalized = if (stripped.scale < 0) stripped.setScale(0) else stripped
    val s = normalized.toPlainString
    if (s == "-0") "0" else s
  }
}
