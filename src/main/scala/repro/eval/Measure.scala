package repro.eval

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Measurement helpers for the evaluation harness. */
object Measure {

  /** Total executor CPU seconds consumed by all Spark tasks that end while
    * `body` runs (the Table 7 "CPU hours" quantity, scaled to seconds).
    * Runs must not overlap — the listener is global.
    */
  def sparkCpuSeconds[T](spark: SparkSession)(body: => T): (T, Double) = {
    val cpuNs = new java.util.concurrent.atomic.AtomicLong(0L)
    val listener = new SparkListener {
      override def onTaskEnd(taskEnd: SparkListenerTaskEnd): Unit = {
        val m = taskEnd.taskMetrics
        if (m != null) cpuNs.addAndGet(m.executorCpuTime)
      }
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val r = body
      // the listener bus is async with no public drain — poll until the
      // counter is stable (two consecutive identical reads), max ~5 s
      var last = -1L
      var tries = 0
      while (cpuNs.get() != last && tries < 25) {
        last = cpuNs.get()
        Thread.sleep(200)
        tries += 1
      }
      (r, cpuNs.get() / 1e9)
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  /** Average wall seconds of `body` over `reps` runs after `warmup` runs. */
  def avgSeconds(warmup: Int, reps: Int)(body: => Unit): Double = {
    var i = 0
    while (i < warmup) { body; i += 1 }
    val t0 = System.nanoTime()
    i = 0
    while (i < reps) { body; i += 1 }
    (System.nanoTime() - t0) / 1e9 / reps
  }

  /** Human-readable byte size. */
  def fmtBytes(b: Long): String =
    if (b >= (1L << 30)) f"${b / (1024.0 * 1024 * 1024)}%.2f GB"
    else if (b >= (1L << 20)) f"${b / (1024.0 * 1024)}%.2f MB"
    else if (b >= (1L << 10)) f"${b / 1024.0}%.2f KB"
    else s"$b B"

  /** Render rows as a fixed-width table (for the bench outputs). */
  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(header.map(_ => "---")) +: rows.map(line)).mkString("\n")
  }
}
