package perfbench

import org.roaringbitmap.RoaringBitmap
import org.roaringbitmap.insights.BitmapAnalyser
import repro.bsi.{BSI, BSICodec}

/** Driver-side, single-threaded replays of the per-row work of the BSI UDFs
  * on the workload's own serialized BSIs. Each call does what the UDF of the
  * same name does (the same codec and kernel calls, in the same order), with
  * every codec and kernel call timed into the tracer. This splits the UDF
  * layer's time into its codec and kernel parts without touching the program.
  */
final class Replay(t: Tracer) {

  def de(b: Array[Byte]): BSI = {
    t.add("codec.bytes_in", if (b == null) 0 else b.length)
    t.time("codec.deserialize_ms")(BSICodec.deserialize(b))
  }

  def se(b: BSI): Array[Byte] = {
    val out = t.time("codec.serialize_ms")(BSICodec.serialize(b))
    t.add("codec.bytes_out", out.length)
    out
  }

  private def touch(bs: BSI*): Unit = t.add("bsi.slices_touched", bs.map(_.numSlices).sum.toDouble)

  /** `bsi_cmp_const(offset, '<=', k)`. */
  def leConst(offset: Array[Byte], k: Long): Array[Byte] = {
    val o = de(offset); touch(o)
    se(BSI.fromBitmap(t.time("bsi.leConst_ms")(o.leConst(k))))
  }

  /** `bsi_cmp_const(value, op, k)` for the deep-dive predicates. */
  def cmpConst(value: Array[Byte], op: String, k: Long): Array[Byte] = {
    val v = de(value); touch(v)
    val bits = op match {
      case "="  => t.time("bsi.eqConst_ms")(v.eqConst(k))
      case ">=" => t.time("bsi.geConst_ms")(v.geConst(k))
      case o    => throw new IllegalArgumentException(s"no replay for comparison $o")
    }
    se(BSI.fromBitmap(bits))
  }

  /** `bsi_mul(a, b)`. */
  def mul(a: Array[Byte], b: Array[Byte]): Array[Byte] = {
    val x = de(a); val y = de(b); touch(x, y)
    se(t.time("bsi.multiply_ms")(x.multiply(y)))
  }

  /** `bsi_sum(a)`. */
  def sum(a: Array[Byte]): Long = { val x = de(a); touch(x); t.time("bsi.sum_count_ms")(x.sumValues) }

  /** `bsi_count(a)`. */
  def count(a: Array[Byte]): Long = { val x = de(a); touch(x); t.time("bsi.sum_count_ms")(x.count) }

  /** `bsi_bucket_stats(value, mask, bucket, n)`: (bucket, sum, exposed count). */
  def bucketStats(value: Array[Byte], mask: Array[Byte], bucket: Array[Byte],
                  nBuckets: Int): Seq[(Int, Long, Long)] = {
    val v = de(value); val m = de(mask).existence; val bk = de(bucket)
    (1 to nBuckets).flatMap { b =>
      touch(bk)
      val posB = t.time("bsi.eqConst_ms")(bk.eqConst(b.toLong))
      posB.and(m)
      val cnt = t.time("bsi.cardinality_ms")(posB.getLongCardinality)
      if (cnt == 0) None
      else {
        touch(v)
        val part = t.time("bsi.andBinary_ms")(v.andBinary(posB))
        Some((b, t.time("bsi.sum_count_ms")(part.sumValues), cnt))
      }
    }
  }

  /** Array, bitmap and run container counts over the slices of `bsis`. */
  def containers(bsis: Iterable[BSI]): Unit = {
    val slices = new java.util.ArrayList[RoaringBitmap]()
    bsis.foreach(b => (0 until b.numSlices).foreach(i => slices.add(b.slice(i))))
    val st = BitmapAnalyser.analyse(slices)
    t.add("bsi.containers_array", st.getArrayContainersStats.getContainersCount.toDouble)
    t.add("bsi.containers_bitmap", st.getBitmapContainerCount.toDouble)
    t.add("bsi.containers_run", st.getRunContainerCount.toDouble)
  }
}

object Replay {
  /** Every per-layer metric the benchmark reports, in report order. A metric
    * reads 0 on a workload that does not exercise its layer.
    */
  val perLayer: Seq[String] = Seq(
    "bsi.leConst_ms", "bsi.filteredSum_ms", "bsi.cardinality_ms",
    "bsi.multiply_ms", "bsi.sum_count_ms",
    "bsi.eqConst_ms", "bsi.add_ms", "bsi.andBinary_ms",
    "bsi.slices_touched", "bsi.containers_array", "bsi.containers_bitmap", "bsi.containers_run",
    "codec.deserialize_ms", "codec.serialize_ms", "codec.bytes_in", "codec.bytes_out",
    "udf.bsi_cmp_const_cpu_s", "udf.bsi_mul_cpu_s", "udf.bsi_sum_cpu_s", "udf.bsi_count_cpu_s",
    "udf.bsi_bucket_stats_cpu_s", "udf.bsi_sum_agg_cpu_s", "udf.bsi_mul_agg_cpu_s",
    "udf.bsi_build_cpu_s",
    "scorecard.bucket_values_s", "scorecard.metric_values_s", "stats.ttest_ms",
    "preexp.pre_sum_s", "deepdive.filter_s", "deepdive.scorecard_s", "stats.cuped_ms",
    "convert.to_bsi_s",
    "preagg.build_ms", "preagg.query_ms", "preagg.nodes_merged",
    "adhoc.query_ms", "adhoc.kernel_cpu_ms", "adhoc.parallel_eff",
    "spark.jobs", "spark.tasks", "spark.shuffle_bytes", "spark.gc_s",
    "expgen.generate_s",
    "ref.adhoc_normal_ms", "ref.scorecard_normal_cpu_s",
    "trace.overhead_ms")
}
