package perfbench

/** A minimal JSON writer for the benchmark's result records. */
object Json {

  /** Already-rendered JSON. */
  final case class Raw(text: String) {
    override def toString: String = text
  }

  def obj(fields: (String, Any)*): Raw =
    Raw(fields.map { case (k, v) => s"${quote(k)}: ${render(v)}" }.mkString("{", ", ", "}"))

  def render(v: Any): String = v match {
    case r: Raw                       => r.text
    case s: String                    => quote(s)
    case b: Boolean                   => b.toString
    case i: Int                       => i.toString
    case l: Long                      => l.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                    => d.toString
    case xs: Seq[_]                   => xs.map(render).mkString("[", ", ", "]")
  }

  def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'            => sb.append("\\\"")
      case '\\'           => sb.append("\\\\")
      case '\n'           => sb.append("\\n")
      case '\t'           => sb.append("\\t")
      case c if c < ' '   => sb.append(f"\\u${c.toInt}%04x")
      case c              => sb.append(c)
    }
    sb.append('"').toString
  }
}
