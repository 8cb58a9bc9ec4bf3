package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers
import repro.core.model.Num

class NumSpec extends AnyFunSuite with PropHelpers {

  test("parses plain integers") { assert(Num.parse("80000").contains(BigDecimal(80000))) }
  test("parses negative integers") { assert(Num.parse("-42").contains(BigDecimal(-42))) }
  test("parses decimals") { assert(Num.parse("0.065").contains(BigDecimal("0.065"))) }
  test("parses with surrounding whitespace") { assert(Num.parse(" 7 ").contains(BigDecimal(7))) }
  test("rejects empty string") { assert(Num.parse("").isEmpty) }
  test("rejects null") { assert(Num.parse(null).isEmpty) }
  test("rejects words") { assert(Num.parse("IBM").isEmpty) }
  test("rejects exponent notation") { assert(Num.parse("1e5").isEmpty) }
  test("rejects overlong tokens") { assert(Num.parse("1" * 30).isEmpty) }
  test("rejects lone minus") { assert(Num.parse("-").isEmpty) }
  test("rejects double dots") { assert(Num.parse("1.2.3").isEmpty) }

  test("canon keeps integers plain") { assert(Num.canon(BigDecimal(80000)) == "80000") }
  test("canon strips trailing zeros") { assert(Num.canon(BigDecimal("6.5400")) == "6.54") }
  test("canon renders paper's 65/1000") {
    assert(Num.canon(BigDecimal(65)(Num.Ctx) / 1000) == "0.065")
  }
  test("canon renders paper's 6540/1000") {
    assert(Num.canon(BigDecimal(6540)(Num.Ctx) / 1000) == "6.54")
  }
  test("canon renders paper's 9800/1000") {
    assert(Num.canon(BigDecimal(9800)(Num.Ctx) / 1000) == "9.8")
  }
  test("canon normalizes zero") { assert(Num.canon(BigDecimal("0.000")) == "0") }
  test("canon avoids exponent for large values") {
    assert(Num.canon(BigDecimal("80000").bigDecimal.stripTrailingZeros) == "80000")
  }

  test("property: parse accepts exactly the plain-decimal grammar") {
    // The grammar as a regex; Java's \d means ASCII 0-9 only.
    val grammar = """[+-]?\d{1,18}(\.\d{1,12})?""".r
    def accepted(s: String) = {
      val t = s.trim
      t.nonEmpty && t.length <= 24 && grammar.pattern.matcher(t).matches()
    }
    val edge = Seq("-0", "+5", "1.", ".5", "1e3", "1" * 19, "0." + "1" * 13, "\u0663", " 7 ", "\t-1.5\n",
      "1" * 18, "1" * 18 + "." + "1" * 5, "1" * 18 + "." + "1" * 6, "+-1", "1.2.3", "- 1", "", " ")
    for (s <- edge) assert(Num.parse(s).isDefined == accepted(s), s)
    val chars = Gen.oneOf("0123456789+-. \te\u0663".toSeq)
    val tokens = Gen.oneOf(Gen.listOf(chars).map(_.mkString), Gen.asciiStr, Gen.numStr,
      Gen.choose(-1e9, 1e9).map(_.toString))
    checkProp(Prop.forAll(tokens)(s => Num.parse(s).isDefined == accepted(s)), minSuccessful = 2000)
  }

  test("property: canon is a fixpoint of parse∘canon") {
    val genNum = Gen.chooseNum(-1000000L, 1000000L).flatMap { i =>
      Gen.chooseNum(0, 4).map(s => BigDecimal(i) / BigDecimal(10).pow(s))
    }
    checkProp(Prop.forAll(genNum) { b =>
      val c = Num.canon(b)
      Num.parse(c).exists(p => Num.canon(p) == c)
    })
  }

  test("property: parse accepts what canon emits") {
    val genNum = Gen.chooseNum(-100000L, 100000L).map(BigDecimal(_))
    checkProp(Prop.forAll(genNum)(b => Num.parse(Num.canon(b)).contains(b)))
  }
}
