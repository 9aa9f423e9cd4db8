package perfbench

import scala.collection.mutable

/** Spans and counters recorded by the benchmark around calls into the
  * program's layers. Nothing inside the program is instrumented: every span
  * wraps a call to a public function of the layer it is named after.
  *
  * Work is grouped into ops (one timed op, or one replay of a layer). A
  * per-layer metric is the median, over the ops that recorded it, of the op's
  * total for that name. Names ending in `_ms` or `_s` are times and are
  * converted from nanoseconds; every other name is a plain count.
  *
  * Spans (name, op, parent, start, end) are kept in memory and written out
  * when the run ends; fine-grained kernel calls, which run thousands of times
  * per op, only add to their op's total and call count.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans  = mutable.ArrayBuffer.empty[Span]
  private val totals = mutable.LinkedHashMap.empty[(Int, String), Double]
  private val calls  = mutable.LinkedHashMap.empty[String, Long]
  private var op     = 0
  private var parent = -1
  private val origin = System.nanoTime()

  /** Start a new op; later spans and counts belong to it. */
  def nextOp(): Unit = if (enabled) op += 1

  /** Record a span around `body` (no-op when tracing is off). */
  def span[T](name: String)(body: => T): T = {
    if (!enabled) return body
    val id    = spans.length
    spans += null // reserve the id so children can name their parent
    val saved = parent
    parent = id
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      parent = saved
      spans(id) = Span(id, saved, op, name, t0 - origin, t1 - origin)
      add(name, (t1 - t0).toDouble)
    }
  }

  /** Time `body` into the op's total for `name` without keeping a span. */
  def time[T](name: String)(body: => T): T = {
    if (!enabled) return body
    val t0 = System.nanoTime()
    val r  = body
    add(name, (System.nanoTime() - t0).toDouble)
    calls(name) = calls.getOrElse(name, 0L) + 1
    r
  }

  /** Add `v` to the op's total for the count or time `name` (times in ns). */
  def add(name: String, v: Double): Unit =
    if (enabled) totals((op, name)) = totals.getOrElse((op, name), 0.0) + v

  /** The current op's raw total for `name` (ns for times). */
  def opTotal(name: String): Double = totals.getOrElse((op, name), 0.0)

  /** Median over ops of the op totals of `name`, in the name's unit; 0 when
    * no op recorded it (the workload does not use that layer).
    */
  def metric(name: String): Double = {
    val perOp = totals.collect { case ((_, n), v) if n == name => v }.toSeq
    if (perOp.isEmpty) 0.0 else Quantiles.median(perOp) / Tracer.scale(name)
  }

  /** Spans, per-name inclusive and self times, and kernel call counts. */
  def dump: Map[String, Any] = {
    val done = spans.filter(_ != null).toSeq
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    done.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.endNs - s.startNs)
    val byName = done.groupBy(_.name).map { case (n, ss) =>
      n -> Map(
        "count"     -> ss.size,
        "total_ms"  -> ss.map(s => s.endNs - s.startNs).sum / 1e6,
        "self_ms"   -> ss.map(s => s.endNs - s.startNs - childNs(s.id)).sum / 1e6)
    }
    Map(
      "spans" -> done.map(s => Map("id" -> s.id, "parent" -> s.parent, "op" -> s.op,
        "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs)),
      "span_totals" -> byName,
      "kernel_calls" -> calls.toMap)
  }
}

object Tracer {
  /** The tracer of untraced ops: records nothing. */
  val off = new Tracer(false)

  final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, endNs: Long)

  /** Divisor from recorded nanoseconds to the unit the name carries. */
  def scale(name: String): Double =
    if (name.endsWith("_ms")) 1e6 else if (name.endsWith("_s")) 1e9 else 1.0
}

/** Order statistics over samples. */
object Quantiles {
  /** Linear-interpolated quantile `q` ∈ [0, 1] (the numpy default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val h = (s.length - 1) * q
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  /** Mean of the samples between the first and third quartile. */
  def midMean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    val s = xs.sorted
    val mid = s.slice(s.length / 4, s.length - s.length / 4)
    mid.sum / mid.length
  }
}
