package perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.bsi.BSI
import repro.core.{BsiConvert, BsiUdfs, DeepDive, PreExperiment, Scorecard, ScorecardBaseline}
import repro.core.Stats.{BucketedMetric, TTestResult}
import repro.expgen.ExperimentGen
import repro.preagg.PreAggTree

/** `drilldown_1024`: one analyst drill-down per op into one metric of one
  * two-arm experiment. An op sums the metric over a 7-day pre-period with
  * `PreExperiment.preSumTree` (the CUPED covariate), computes experiment-day
  * and covariate values with `Scorecard.bucketValuesBucketed` at 1024 buckets
  * (§4.2 general case, one `eqConst` per bucket in `bsi_bucket_stats`), rolls
  * the day up with `Scorecard.metricValues`, runs `Stats.welchTTest` and
  * `Stats.cupedTTest` per metric, and scores a deep dive on two dimension
  * predicates through `Scorecard.bucketValuesSimple` — the per-row
  * `bsi_cmp_const → bsi_mul → bsi_sum/bsi_count` chain of the Table 7 scorecard.
  * It writes new BSIs — `add` in the pre-aggregate tree, `multiply` and
  * `bsi_mul_agg` in the deep dive — and serializes them.
  */
final class Drilldown1024(probe: SparkProbe, seed: Long, nproc: Int, tiny: Boolean) extends Workload {
  private val spark = probe.spark
  BsiUdfs.register(spark)
  private val nSegments       = nproc
  private val usersPerSegment = if (tiny) 1000 else 12500
  private val nUsers          = nSegments.toLong * usersPerSegment
  private val nBuckets        = 1024
  private val preDates        = 1 to 7
  private val day             = 10 // scored day; the experiment starts on day 8
  private val specs = Seq(ExperimentGen.coreMetricSpecs.head)
  private val strategies = ExperimentGen.twoArmStrategies(1, trafficPpm = 500000L, startDate = 8, nDays = 3)
  private val strategyIds = strategies.map(_.strategyId)
  private val (treatment, control) = (strategyIds(1), strategyIds(0))
  private val preds = Seq(DeepDive.DimPredicate("client-type", "=", 2),
                          DeepDive.DimPredicate("client-version", ">=", 120))

  private var cached: List[DataFrame] = Nil
  private var exposeBsi, metricBsi, dimBsi: DataFrame = _
  private var refY, refX, refDeep: Cells.Table = _
  private var refWelch, refCuped: Map[Int, TTestResult] = _

  def params: Seq[(String, Any)] = Seq("segments" -> nSegments, "units_per_segment" -> usersPerSegment,
    "buckets" -> nBuckets, "metrics" -> specs.size, "pre_period_days" -> preDates.size,
    "day" -> day, "traffic_ppm" -> 500000L, "predicates" -> preds.map(_.toString),
    "spark_master" -> s"local[$nproc]")
  def warmups: Int = 3
  // Spark's query planning on the driver keeps speeding up for about a minute
  // of JVM time while the JIT compiles it; this brings the first timed op
  // near that plateau
  def warmupSeconds: Double = if (tiny) 0 else 15

  /** Cache `df`, materialize it and remember it for [[release]]. */
  private def keep(df: DataFrame): DataFrame = {
    val c = df.cache()
    c.count()
    cached ::= c
    c
  }

  def release(): Unit = { cached.foreach(_.unpersist(blocking = true)); cached = Nil }

  def cpuNs(): Long = probe.snapshot().cpuNs

  /** Run an op's Spark work; in a traced op, add its Spark counters. */
  private def sparkOp[T](t: Tracer)(body: => T): T =
    if (!t.enabled) body
    else { val (r, c) = probe.measure(body); probe.record(t, c); r }

  /** `df` with one partition per segment, so that an op's per-segment work
    * spreads over all cores.
    */
  private def bySegment(df: DataFrame): DataFrame = df.repartitionByRange(nSegments, col("segment_id"))

  /** Total serialized bytes of the BSI columns `cols` of `df`. */
  private def columnBytes(df: DataFrame, cols: String*): Long =
    df.select(cols.map(c => coalesce(sum(length(col(c))), lit(0L))).reduce(_ + _)).head().getLong(0)

  def setup(t: Tracer): Unit = {
    val (dict, expose, metric, dims) = t.span("expgen.generate_s") {
      (keep(ExperimentGen.dictionary(spark, nUsers, nSegments, seed)),
       keep(ExperimentGen.exposeLog(spark, nUsers, strategies, nBuckets, seed)),
       keep(ExperimentGen.metricLog(spark, nUsers, specs, preDates :+ day, seed)),
       keep(ExperimentGen.dimensionLog(spark, nUsers, Seq(day), seed)))
    }
    val (_, build) = probe.measure(t.span("convert.to_bsi_s") {
      exposeBsi = keep(bySegment(BsiConvert.exposeLogToBsi(expose, dict)))
      metricBsi = keep(bySegment(BsiConvert.metricLogToBsi(metric, dict)))
      dimBsi    = keep(bySegment(BsiConvert.dimensionLogToBsi(dims, dict)))
    })
    t.add("udf.bsi_build_cpu_s", build.cpuNs.toDouble)

    val (_, ref) = probe.measure(t.span("reference") {
      val onDay = metric.where(col("date") === day)
      refY = Cells.of(ScorecardBaseline.bucketValues(expose, onDay, Seq(day)).collect().toSeq)
      val preLog = metric.where(col("date").between(preDates.head, preDates.last))
        .groupBy("unit_id", "metric_id").agg(sum("value").as("value"))
        .withColumn("date", lit(day))
      refX = Cells.of(ScorecardBaseline.bucketValues(expose, preLog, Seq(day)).collect().toSeq)
      // the predicates of `preds`, applied to the normal-format dimension log
      val passing = dims.where(col("date") === day)
        .where((col("dim_name") === "client-type" && col("value") === 2) ||
               (col("dim_name") === "client-version" && col("value") >= 120))
        .groupBy("unit_id").count().where(col("count") === preds.size).select("unit_id")
      val deepExpose = expose.join(passing, "unit_id")
        .join(dict.select("unit_id", "segment_id"), "unit_id")
        .withColumn("bucket_id", col("segment_id")).drop("segment_id")
      refDeep = Cells.of(ScorecardBaseline.bucketValues(deepExpose, onDay, Seq(day)).collect().toSeq)
    })
    t.add("ref.scorecard_normal_cpu_s", ref.cpuNs.toDouble)
    refWelch = welch(Cells.bucketed(refY, nBuckets, 1))
    refCuped = cuped(Cells.bucketed(refY, nBuckets, 1), Cells.bucketed(refX, nBuckets, 1))
  }

  private def cuped(y: Map[(Long, Int), BucketedMetric], x: Map[(Long, Int), BucketedMetric]): Map[Int, TTestResult] =
    specs.map(_.metricId).map { m =>
      m -> repro.core.Stats.cupedTTest(y((treatment, m)), x((treatment, m)), y((control, m)), x((control, m)))
    }.toMap

  import Drilldown1024.Drill

  private def welch(y: Map[(Long, Int), BucketedMetric]): Map[Int, TTestResult] =
    specs.map(_.metricId).map(m => m -> repro.core.Stats.welchTTest(y((treatment, m)), y((control, m)))).toMap

  def op(t: Tracer): AnyRef = sparkOp(t) {
    val pre = t.span("preexp.pre_sum_s") {
      PreExperiment.preSumTree(metricBsi.where(col("date") <= preDates.last), preDates, preDates.last + 1, preDates.size).cache()
    }
    val bv = Scorecard.bucketValuesBucketed(exposeBsi, metricBsi, Seq(day), nBuckets).cache()
    var filter: DataFrame = null
    try {
      t.span("preexp.pre_sum_s")(pre.count())
      val (y, x) = t.span("scorecard.bucket_values_s") {
        (PreExperiment.collectBucketed(bv, nBuckets),
         PreExperiment.collectBucketed(Scorecard.bucketValuesBucketed(exposeBsi, pre.withColumn("date", lit(day)),
           Seq(day), nBuckets), nBuckets))
      }
      val totals = t.span("scorecard.metric_values_s")(Cells.totals(Scorecard.metricValues(bv).collect().toSeq))
      val w = t.span("stats.ttest_ms")(welch(y))
      val c = t.span("stats.cuped_ms")(cuped(y, x))
      filter = t.span("deepdive.filter_s") { val f = DeepDive.dimFilter(dimBsi, preds, day).cache(); f.count(); f }
      val deep = t.span("deepdive.scorecard_s") {
        Cells.of(Scorecard.bucketValuesSimple(DeepDive.filteredExpose(exposeBsi, filter, strategyIds), metricBsi, Seq(day))
          .collect().toSeq)
      }
      Drill(y, x, totals, w, c, deep)
    } finally {
      // blocking, so that one op's cache cleanup does not run into the next
      pre.unpersist(blocking = true)
      bv.unpersist(blocking = true)
      if (filter != null) filter.unpersist(blocking = true)
    }
  }

  /** Buckets of `got` that differ from the reference table `ref`. */
  private def diffBuckets(got: Map[(Long, Int), BucketedMetric], ref: Cells.Table): Int = {
    val want = Cells.bucketed(ref, nBuckets, 1)
    (got.keySet ++ want.keySet).toSeq.map { k =>
      val empty = BucketedMetric(new Array(nBuckets), new Array(nBuckets))
      val a = got.getOrElse(k, empty); val b = want.getOrElse(k, empty)
      (0 until nBuckets).count(i => a.sums(i) != b.sums(i) || a.counts(i) != b.counts(i))
    }.sum
  }

  def mismatches(result: AnyRef): Int = {
    val d = result.asInstanceOf[Drill]
    val refTotals = Cells.totals(refY)
    diffBuckets(d.y, refY) + diffBuckets(d.x, refX) + Cells.diff(d.deep, refDeep) +
      (d.totals.keySet ++ refTotals.keySet).count(k => d.totals.get(k) != refTotals.get(k)) +
      Cells.diffTests(d.welch, refWelch) + Cells.diffTests(d.cuped, refCuped)
  }

  def corruptReference(): Unit = refY = Cells.corrupt(refY)

  def storeBytes: Long =
    columnBytes(exposeBsi, "offset_bsi", "bucket_bsi") + columnBytes(metricBsi, "value_bsi") +
      columnBytes(dimBsi, "value_bsi")

  /** Replays the pre-aggregate tree, the 1024-bucket statistics and the deep
    * dive's kernel and codec calls on the driver, once, and checks them
    * against the reference; then times each UDF the drill-down uses as its
    * own Spark job on the same rows.
    */
  def replay(t: Tracer): Int = {
    def seg(r: Row) = r.getAs[Number]("segment_id").intValue
    def bytes(r: Row, c: String) = r.getAs[Array[Byte]](c)
    val ex  = exposeBsi.collect().toSeq
    val mx  = metricBsi.collect().toSeq
    val dx  = dimBsi.where(col("date") === day).collect().toSeq
    t.nextOp()
    val r = new Replay(t)

    // pre-aggregate tree per (segment, metric) over the pre-period
    val preSums = mx.filter(_.getAs[Number]("date").intValue <= preDates.last)
      .groupBy(m => (seg(m), m.getAs[Number]("metric_id").intValue)).map { case (key, rows) =>
        val byDay = Array.fill[BSI](preDates.size)(BSI.empty)
        rows.foreach(m => byDay(m.getAs[Number]("date").intValue - preDates.head) = r.de(bytes(m, "value_bsi")))
        val tree = t.time("preagg.build_ms")(new PreAggTree(byDay.toIndexedSeq, (a, b) => t.time("bsi.add_ms")(a.add(b))))
        val q = t.time("preagg.query_ms")(tree.query(0, preDates.size - 1))
        t.add("preagg.nodes_merged", tree.lastNodesMerged.toDouble)
        key -> r.se(q)
      }
    val onDay = mx.filter(_.getAs[Number]("date").intValue == day)
      .map(m => (seg(m), m.getAs[Number]("metric_id").intValue) -> bytes(m, "value_bsi")).toMap

    // 1024-bucket statistics for the experiment day (y) and covariate (x)
    def bucketTable(values: Map[(Int, Int), Array[Byte]]): Cells.Table = {
      val acc = scala.collection.mutable.Map.empty[Cells.Key, (Long, Long)].withDefaultValue((0L, 0L))
      for (e <- ex; ((s, m), v) <- values if s == seg(e)) {
        val st = e.getAs[Number]("strategy_id").longValue
        val expose = r.leConst(bytes(e, "offset_bsi"), (day - e.getAs[Number]("min_expose_date").intValue + 1).toLong)
        r.bucketStats(r.mul(v, expose), expose, bytes(e, "bucket_bsi"), nBuckets).foreach { case (b, sm, c) =>
          val (s0, c0) = acc((st, m, day, b)); acc((st, m, day, b)) = (s0 + sm, c0 + c)
        }
      }
      acc.toMap
    }
    var bad = Cells.diff(bucketTable(onDay), refY) + Cells.diff(bucketTable(preSums), refX)

    // deep dive: per-segment filter, filtered expose, then the scorecard chain
    val filters = dx.groupBy(seg).map { case (s, dims) =>
      s -> preds.map { p =>
        r.cmpConst(bytes(dims.find(_.getAs[String]("dim_name") == p.dimName).get, "value_bsi"), p.op, p.k)
      }.reduce(r.mul)
    }
    val deep = for {
      e <- ex
      offset = r.mul(bytes(e, "offset_bsi"), filters(seg(e)))
      _ = r.mul(bytes(e, "bucket_bsi"), filters(seg(e)))
      ((s, m), v) <- onDay if s == seg(e)
    } yield {
      val expose = r.leConst(offset, (day - e.getAs[Number]("min_expose_date").intValue + 1).toLong)
      (e.getAs[Number]("strategy_id").longValue, m, day, s) -> ((r.sum(r.mul(v, expose)), r.count(expose)))
    }
    bad += Cells.diff(deep.toMap, refDeep)
    r.containers((ex.flatMap(e => Seq(bytes(e, "offset_bsi"), bytes(e, "bucket_bsi"))) ++
      mx.map(bytes(_, "value_bsi"))).map(repro.bsi.BSICodec.deserialize))

    val chain = keep(exposeBsi.join(metricBsi.where(col("date") === day), "segment_id")
      .select(col("offset_bsi"), col("bucket_bsi"), col("value_bsi"),
        (lit(day) - col("min_expose_date") + 1).cast("bigint").as("k"))
      .withColumn("expose", expr("bsi_cmp_const(offset_bsi, '<=', k)"))
      .withColumn("filtered", expr("bsi_mul(value_bsi, expose)")))
    probe.udfCpu(t, "udf.bsi_cmp_const_cpu_s")(chain.selectExpr("bsi_cmp_const(offset_bsi, '<=', k)"))
    probe.udfCpu(t, "udf.bsi_mul_cpu_s")(chain.selectExpr("bsi_mul(value_bsi, expose)"))
    probe.udfCpu(t, "udf.bsi_sum_cpu_s")(chain.selectExpr("bsi_sum(filtered)"))
    probe.udfCpu(t, "udf.bsi_count_cpu_s")(chain.selectExpr("bsi_count(expose)"))
    probe.udfCpu(t, "udf.bsi_bucket_stats_cpu_s")(
      chain.selectExpr(s"bsi_bucket_stats(filtered, expose, bucket_bsi, $nBuckets)"))
    // the direct pre-period sum, the aggregate the tree replaces
    probe.udfCpu(t, "udf.bsi_sum_agg_cpu_s")(
      PreExperiment.preSumDirect(metricBsi, preDates.last + 1, preDates.size))
    val perDim = keep(preds.map { p =>
      dimBsi.where(col("dim_name") === p.dimName && col("date") === day)
        .select(col("segment_id"), expr(s"bsi_cmp_const(value_bsi, '${p.op}', ${p.k}L)").as("filter"))
    }.reduce(_ unionByName _))
    probe.udfCpu(t, "udf.bsi_mul_agg_cpu_s")(perDim.groupBy("segment_id").agg(expr("bsi_mul_agg(filter)")))
    bad
  }
}

object Drilldown1024 {
  /** One drill-down: experiment-day and covariate buckets, per-(strategy,
    * metric, day) totals, Welch and CUPED tests per metric, and the deep
    * dive's bucket cells.
    */
  final case class Drill(y: Map[(Long, Int), BucketedMetric], x: Map[(Long, Int), BucketedMetric],
                         totals: Map[(Long, Int, Int), (Long, Long)], welch: Map[Int, TTestResult],
                         cuped: Map[Int, TTestResult], deep: Cells.Table)
}
