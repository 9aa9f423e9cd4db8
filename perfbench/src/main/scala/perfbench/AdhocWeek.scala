package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.jdk.CollectionConverters._

import repro.adhoc.AdhocEngine
import repro.adhoc.AdhocEngine.Cell
import repro.bsi.{BSI, BSIBuilder}
import repro.expgen.ExperimentGen

/** `adhoc_week`: the Table 8 query — 3 strategies × 105 core metrics × 7 days —
  * repeated on [[AdhocEngine.queryBsi]] over `nproc` segments of about 100k
  * units. Kernels (`leConst`, `filteredSum`) do almost all the work; no
  * Spark and no codec run, so a codec or UDF change should not move it.
  *
  * Shards are generated directly (Spark would take minutes to emit 20M metric
  * rows) with the distributions of [[ExperimentGen]]: Table 3 value ranges,
  * values concentrated near 0 via `rangeCard^(u³)`, participation falling
  * with the position (engagement order) and geometric expose offsets.
  */
final class AdhocWeek(seed: Long, nproc: Int, tiny: Boolean, keepRows: Boolean) extends Workload {
  private val nSegments       = nproc
  private val usersPerSegment = if (tiny) 2000 else 100000
  private val specs           = ExperimentGen.coreMetricSpecs
  private val metricIds       = specs.map(_.metricId)
  private val dates           = 1 to 7
  private val strategyIds     = Seq(9001L, 9002L, 9003L)

  private var engine: AdhocEngine = _
  private var offsets: Array[Array[BSI]]       = _ // [segment][strategy]
  private var values: Array[Array[Array[BSI]]] = _ // [segment][metric][date]
  private var rows: Array[Array[Array[(Array[Int], Array[Long])]]] = _ // normal format, traced runs
  private var reference: Map[(Long, Int, Int), (Long, Long)] = _

  def params: Seq[(String, Any)] = Seq("segments" -> nSegments, "units_per_segment" -> usersPerSegment,
    "metrics" -> specs.size, "days" -> dates.size, "strategies" -> strategyIds.size,
    "engine_threads" -> nproc, "cells_per_op" -> strategyIds.size * specs.size * dates.size)
  def warmups: Int = 10
  def warmupSeconds: Double = 0

  private def mix(x: Long): Long = { // splitmix64 finalizer
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
  private def u01(x: Long): Double = (mix(x) >>> 11).toDouble / (1L << 53)

  /** One segment: expose offsets per strategy, and per (metric, day) the value
    * BSI with the same rows in normal (columnar) format.
    */
  private def genSegment(seg: Int): (Array[BSI], Array[Array[BSI]], Array[Array[(Array[Int], Array[Long])]]) = {
    val base = mix(seed ^ (seg.toLong << 40))
    val offs = strategyIds.map(_ => new BSIBuilder).toArray
    var p = 0
    while (p < usersPerSegment) { // 90% of units in the one 3-arm experiment
      val h = mix(base + p)
      if (u01(h) < 0.9) {
        val arm = ((mix(h + 1) >>> 1) % strategyIds.size).toInt
        val off = math.min(dates.size, (math.log(1.0 - u01(h + 2)) / math.log(0.5)).toInt + 1)
        offs(arm).put(p, off.toLong)
      }
      p += 1
    }
    val vals = Array.ofDim[BSI](specs.size, dates.size)
    val normal = Array.ofDim[(Array[Int], Array[Long])](specs.size, dates.size)
    specs.zipWithIndex.foreach { case (spec, mi) =>
      dates.zipWithIndex.foreach { case (d, di) =>
        val b    = new BSIBuilder
        val posB = Array.newBuilder[Int]
        val valB = Array.newBuilder[Long]
        val part = spec.basePartPpm / 1e6
        val h0   = mix(base + spec.metricId * 1000003L + d * 7919L)
        var p = 0
        while (p < usersPerSegment) {
          val h = mix(h0 + p)
          val engagement = 1.0 - (p + 0.5) / usersPerSegment
          if (u01(h) < math.min(1.0, 2 * engagement * part)) {
            val u = u01(h + 5)
            val v = math.max(1L, math.pow(spec.rangeCard.toDouble, u * u * u).toLong).min(spec.rangeCard)
            b.put(p, v); posB += p; valB += v
          }
          p += 1
        }
        vals(mi)(di) = b.result()
        normal(mi)(di) = (posB.result(), valB.result())
      }
    }
    (offs.map(_.result()), vals, normal)
  }

  def setup(t: Tracer): Unit = {
    val shards = t.span("expgen.generate_s") {
      val pool = Executors.newFixedThreadPool(nproc)
      try pool.invokeAll((0 until nSegments).map(s => new Callable[AnyRef] {
        def call(): AnyRef = genSegment(s)
      }).asJava).asScala.map(_.get().asInstanceOf[(Array[BSI], Array[Array[BSI]], Array[Array[(Array[Int], Array[Long])]])]).toArray
      finally { pool.shutdown(); pool.awaitTermination(1, TimeUnit.MINUTES) }
    }
    offsets = shards.map(_._1)
    values  = shards.map(_._2)
    engine  = new AdhocEngine(nSegments, nproc)
    for (seg <- 0 until nSegments) {
      strategyIds.zipWithIndex.foreach { case (st, a) => engine.loadExposeBsi(seg, st, dates.min, offsets(seg)(a)) }
      for ((spec, mi) <- specs.zipWithIndex; (d, di) <- dates.zipWithIndex)
        engine.loadMetricBsi(seg, spec.metricId, d, values(seg)(mi)(di))
    }
    // reference: the normal method on the same rows, in an engine of its own
    // so that untraced runs can drop the row store once it is computed
    reference = t.span("reference") {
      cells(referenceEngine(shards.map(_._3)).queryNormal(strategyIds, metricIds, dates))
    }
    rows = if (keepRows) shards.map(_._3) else null
  }

  private def referenceEngine(normal: Array[Array[Array[(Array[Int], Array[Long])]]]): AdhocEngine = {
    val ref = new AdhocEngine(nSegments, nproc)
    for (seg <- 0 until nSegments) {
      strategyIds.zipWithIndex.foreach { case (st, a) =>
        ref.loadExposeBsi(seg, st, dates.min, offsets(seg)(a))
        ref.buildExposeBitmaps(seg, st, dates)
      }
      for ((spec, mi) <- specs.zipWithIndex; (d, di) <- dates.zipWithIndex) {
        val (pos, v) = normal(seg)(mi)(di)
        ref.loadMetricRows(seg, spec.metricId, d, pos, v)
      }
    }
    ref
  }

  def release(): Unit = { engine = null; offsets = null; values = null; rows = null; reference = null }

  private def cells(cs: Seq[Cell]): Map[(Long, Int, Int), (Long, Long)] =
    cs.map(c => (c.strategyId, c.metricId, c.date) -> ((c.sum, c.exposedCnt))).toMap

  def op(t: Tracer): AnyRef = t.span("adhoc.query_ms")(engine.queryBsi(strategyIds, metricIds, dates))

  def mismatches(result: AnyRef): Int = {
    val got = cells(result.asInstanceOf[Seq[Cell]])
    (got.keySet ++ reference.keySet).count(k => got.getOrElse(k, (0L, 0L)) != reference.getOrElse(k, (0L, 0L)))
  }

  def corruptReference(): Unit = {
    val (k, (s, c)) = reference.head
    reference = reference.updated(k, (s + 1, c))
  }

  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  def cpuNs(): Long = os.getProcessCpuTime

  def storeBytes: Long = offsets.flatten.map(_.sizeInBytes).sum + values.flatten.flatten.map(_.sizeInBytes).sum

  /** Replays the query's kernel calls single-threaded on the same BSIs, three
    * times; also times the normal method that serves as reference.
    */
  def replay(t: Tracer): Int = {
    var bad = 0
    (1 to 3).foreach { _ =>
      t.nextOp()
      val got = scala.collection.mutable.Map.empty[(Long, Int, Int), (Long, Long)].withDefaultValue((0L, 0L))
      for (seg <- 0 until nSegments; (st, a) <- strategyIds.zipWithIndex; (d, di) <- dates.zipWithIndex) {
        val off = offsets(seg)(a)
        val k = math.max(0L, (d - dates.min + 1).toLong)
        t.add("bsi.slices_touched", math.max(off.numSlices, 64 - java.lang.Long.numberOfLeadingZeros(k + 1)).toDouble)
        val expose = t.time("bsi.leConst_ms")(off.leConst(k))
        for ((m, mi) <- metricIds.zipWithIndex) {
          val v = values(seg)(mi)(di)
          t.add("bsi.slices_touched", v.numSlices.toDouble)
          val s = t.time("bsi.filteredSum_ms")(v.filteredSum(expose))
          val c = t.time("bsi.cardinality_ms")(expose.getLongCardinality)
          val (s0, c0) = got((st, m, d))
          got((st, m, d)) = (s0 + s, c0 + c)
        }
      }
      bad += (got.keySet ++ reference.keySet).count(k => got(k) != reference.getOrElse(k, (0L, 0L)))
      val kernelNs = Seq("bsi.leConst_ms", "bsi.filteredSum_ms", "bsi.cardinality_ms")
        .map(n => t.opTotal(n)).sum
      t.add("adhoc.kernel_cpu_ms", kernelNs)
    }
    new Replay(t).containers(offsets.flatten ++ values.flatten.flatten)
    val ref = referenceEngine(rows)
    (1 to 3).foreach { _ =>
      t.nextOp()
      t.span("ref.adhoc_normal_ms")(ref.queryNormal(strategyIds, metricIds, dates))
    }
    val kernelMs = t.metric("adhoc.kernel_cpu_ms")
    t.nextOp()
    t.add("adhoc.parallel_eff", kernelMs / (t.metric("adhoc.query_ms") * nproc))
    bad
  }
}
