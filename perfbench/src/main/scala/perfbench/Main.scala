package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

/** One benchmark workload: its inputs, one op of the closed loop, and the
  * reference every op's result is checked against.
  */
trait Workload {
  /** Parameters written to the run record. */
  def params: Seq[(String, Any)]
  /** Generate the inputs, convert or load them, and build the reference. */
  def setup(t: Tracer): Unit
  /** Drop everything [[setup]] built. */
  def release(): Unit
  /** One op; its result goes to [[mismatches]]. */
  def op(t: Tracer): AnyRef
  /** Cells of `result` that differ from the reference (0 = correct). */
  def mismatches(result: AnyRef): Int
  /** Change one reference cell, to show that the check can fail. */
  def corruptReference(): Unit
  /** CPU nanoseconds consumed so far by the work an op runs. */
  def cpuNs(): Long
  /** Serialized BSI bytes the workload holds. */
  def storeBytes: Long
  /** Traced run only: replay each layer on the workload's data; returns the
    * number of replayed results that differ from the reference.
    */
  def replay(t: Tracer): Int
  /** Warm-up ops run after the last set-up: at least [[warmups]] ops, and
    * more until [[warmupSeconds]] have passed.
    */
  def warmups: Int
  def warmupSeconds: Double
}

/** Runs one workload for a fixed time and prints its metrics.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                [--size full|tiny] [--corrupt-ref 0|1] [--record <file>]
  * }}}
  *
  * Untraced (`--trace 0`): the data set-up runs [[SetupReps]] times and
  * `setup_s` is the JVM and Spark start, plus the median data set-up, plus
  * the warm-up ops; then ops run in a closed loop with one client for
  * `--seconds`, one sample per op. Traced
  * (`--trace 1`): one set-up, then traced and untraced ops alternate for
  * `--seconds`, then one replay of each layer; the per-layer metrics include
  * the traced minus untraced op median as `trace.overhead_ms`.
  *
  * The last stdout line is `RESULT <json>`; the run record goes to `--record`.
  */
object Main {
  val SetupReps = 3

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workloadName = args("workload")
    val seed     = args("seed").toLong
    val seconds  = args("seconds").toDouble
    val traced   = args("trace") == "1"
    val tiny     = args.getOrElse("size", "full") == "tiny"
    val corrupt  = args.getOrElse("corrupt-ref", "0") == "1"
    val nproc    = Runtime.getRuntime.availableProcessors()

    val spark = if (workloadName == "adhoc_week") None else Some(startSpark(nproc, args("local-dir")))
    val readyS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val w: Workload = workloadName match {
      case "adhoc_week"      => new AdhocWeek(seed, nproc, tiny, keepRows = traced)
      case "drilldown_1024"  => new Drilldown1024(new SparkProbe(spark.get), seed, nproc, tiny)
      case other             => throw new IllegalArgumentException(s"unknown workload $other")
    }

    var attempted = 0
    var failed    = 0
    def checked(run: => AnyRef): Unit = {
      attempted += 1
      try {
        val bad = w.mismatches(run)
        if (bad > 0) { failed += 1; Console.err.println(s"[perfbench] op $attempted: $bad cells differ") }
      } catch {
        case e: Exception => failed += 1; Console.err.println(s"[perfbench] op $attempted failed: $e")
      }
    }

    // Set-up is always traced: its spans go to the run record. The data
    // set-up (generate, convert or load, reference) runs SetupReps times and
    // counts with its median; the warm-up ops then run once.
    val setupTracer = new Tracer(true)
    val setupSamples = (1 to (if (traced) 1 else SetupReps)).map { rep =>
      if (rep > 1) w.release()
      setupTracer.nextOp()
      val t0 = System.nanoTime()
      setupTracer.span("setup") {
        w.setup(setupTracer)
        if (corrupt) w.corruptReference()
      }
      (System.nanoTime() - t0) / 1e9
    }
    val warmupS = {
      val t0 = System.nanoTime()
      setupTracer.span("warmup") {
        var n = 0
        while (n < w.warmups || System.nanoTime() - t0 < w.warmupSeconds * 1e9) {
          checked(w.op(Tracer.off))
          n += 1
        }
        System.gc() // collect set-up garbage here rather than in the first timed ops
      }
      (System.nanoTime() - t0) / 1e9
    }

    /** Closed loop for `secs` (at least `minOps` ops); op `n` runs under
      * `tracerFor(n)`. One (wall ms, cpu ms) sample per op.
      */
    def loop(secs: Double, minOps: Int)(tracerFor: Int => Tracer): Seq[(Double, Double)] = {
      val samples = Seq.newBuilder[(Double, Double)]
      val end = System.nanoTime() + (secs * 1e9).toLong
      var n = 0
      while (System.nanoTime() < end || n < minOps) {
        val t = tracerFor(n)
        t.nextOp()
        val c0 = w.cpuNs()
        val t0 = System.nanoTime()
        var result: AnyRef = null
        try result = t.span("op")(w.op(t)) catch { case e: Exception => result = e }
        val wallMs = (System.nanoTime() - t0) / 1e6
        val cpuMs  = (w.cpuNs() - c0) / 1e6
        checked(result match { case e: Exception => throw e; case r => r })
        samples += ((wallMs, cpuMs))
        n += 1
      }
      samples.result()
    }

    val record = scala.collection.mutable.LinkedHashMap[String, Any](
      "workload" -> workloadName, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "size" -> (if (tiny) "tiny" else "full"), "nproc" -> nproc,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "spark" -> org.apache.spark.SPARK_VERSION,
      "roaring" -> Paths.get(classOf[org.roaringbitmap.RoaringBitmap].getProtectionDomain.getCodeSource.getLocation.toURI)
        .getFileName.toString,
      "params" -> w.params.toMap,
      "setup_samples_s" -> setupSamples, "jvm_ready_s" -> readyS, "warmup_s" -> warmupS)

    val metrics: Seq[(String, Double)] =
      if (!traced) {
        val s = loop(seconds, 3)(_ => Tracer.off)
        val wall = s.map(_._1); val cpu = s.map(_._2)
        record ++= Seq("samples" -> s.size, "wall_ms" -> wall, "cpu_ms" -> cpu,
          "setup_trace" -> setupTracer.dump("span_totals"))
        Seq(
          "setup_s"     -> (readyS + Quantiles.median(setupSamples) + warmupS),
          "op_p50_ms"   -> Quantiles.median(wall),
          "op_p90_ms"   -> Quantiles.quantile(wall, 0.9),
          // mean of the middle half: the process CPU clock ticks in 10 ms steps,
          // so single samples are coarse, and a mean over all would follow outliers
          "op_cpu_ms"   -> Quantiles.midMean(cpu),
          "store_mb"    -> w.storeBytes / 1e6)
      } else {
        // traced and untraced ops alternate, so both see the same warm-up
        val t = setupTracer
        val all = loop(seconds, 4)(n => if (n % 2 == 0) Tracer.off else t).map(_._1)
        val plain     = all.indices.collect { case i if i % 2 == 0 => all(i) }
        val withSpans = all.indices.collect { case i if i % 2 == 1 => all(i) }
        val overheadMs = Quantiles.median(withSpans) - Quantiles.median(plain)
        attempted += 1
        if (w.replay(t) > 0) { failed += 1; Console.err.println("[perfbench] a layer replay differs from the reference") }
        record ++= Seq("samples_untraced" -> plain.size, "samples_traced" -> withSpans.size,
          "untraced_p50_ms" -> Quantiles.median(plain), "traced_p50_ms" -> Quantiles.median(withSpans),
          "trace_overhead_ms" -> overheadMs, "trace_dump" -> t.dump)
        Replay.perLayer.map {
          case "trace.overhead_ms" => "trace.overhead_ms" -> overheadMs
          case n                   => n -> t.metric(n)
        }
      }

    record ++= Seq("attempted" -> attempted, "failed" -> failed, "metrics" -> metrics.toMap)
    args.get("record").foreach(p => Files.writeString(Paths.get(p), Json(record.toMap)))
    spark.foreach(_.stop())
    val correct = failed == 0 && metrics.forall(m => !m._2.isNaN && !m._2.isInfinite)
    println("RESULT " + Json(Map("correct" -> correct, "attempted" -> attempted,
      "failed" -> failed, "metrics" -> metrics.toMap)))
  }

  /** A local session on `nproc` cores whose scratch files stay in `dir`. */
  def startSpark(nproc: Int, dir: String): SparkSession =
    SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", nproc.toString)
      // a fixed plan per query: adaptive execution re-plans at every shuffle,
      // adding jobs and run-to-run variation to each op
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.local.dir", s"$dir/spark-local")
      .config("spark.sql.warehouse.dir", s"$dir/spark-warehouse")
      .getOrCreate()
}

/** Minimal JSON rendering for the result line and the run record. */
object Json {
  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float            => apply(f.toDouble)
    case n: Number           => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.map(apply).mkString("[", ",", "]")
    case o                   => quote(o.toString)
  }
  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
