package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Scorecard computation on the BSI representation (§4.2).
  *
  * Every cell is computed the same way: the expose mask is a constant
  * comparison on the `offset` BSI
  * (`expose-date <= date  ⇔  offset <= date - min_expose_date + 1`), built once
  * per (segment, strategy, date) and shared by all metrics; each sum over it is
  * the fused `filteredSum` (Σ 2^i·|slice_i ∧ mask|, O'Neil & Quass), so no
  * filtered value BSI is ever materialized.
  *
  * Output grain: `(strategy_id, metric_id, date, bucket_id, bucket_sum,
  * exposed_cnt)` — `bucket_sum` is the sum of metric values over exposed units
  * in the bucket; `exposed_cnt` counts exposed units (with or without a metric
  * row), the denominator of per-user mean metrics.
  */
object Scorecard {

  /** The common case where segmentation and bucketing coincide (§4.2's demo):
    * the segment id *is* the bucket id, so each joined (strategy, metric,
    * date, segment) row yields exactly one bucket row.
    */
  def bucketValuesSimple(exposeBsi: DataFrame, metricBsi: DataFrame,
                         dates: Seq[Int]): DataFrame =
    exposedMetrics(exposeBsi, metricBsi, dates)
      .select(
        col("strategy_id"), col("metric_id"), col("date"),
        col("segment_id").as("bucket_id"),
        expr("bsi_filtered_sum(value_bsi, expose)").as("bucket_sum"),
        expr("bsi_count(expose)").as("exposed_cnt"))

  /** The general case (§4.2, segment ≠ bucket): per-segment per-bucket partial
    * sums via the bucket BSI, then merged across segments.
    */
  def bucketValuesBucketed(exposeBsi: DataFrame, metricBsi: DataFrame,
                           dates: Seq[Int], nBuckets: Int): DataFrame =
    exposedMetrics(exposeBsi, metricBsi, dates)
      .withColumn("bs",
        expr(s"explode(bsi_bucket_stats(value_bsi, expose, bucket_bsi, $nBuckets))"))
      .groupBy(col("strategy_id"), col("metric_id"), col("date"), col("bs._1").as("bucket_id"))
      .agg(sum(col("bs._2")).as("bucket_sum"), sum(col("bs._3")).as("exposed_cnt"))

  /** Roll bucket rows up to one scorecard row per (strategy, metric, date):
    * the metric value `Σ sum / Σ cnt` plus the bucket-replicate moments the
    * [[Stats]] inference consumes.
    */
  def metricValues(bucketValues: DataFrame): DataFrame =
    bucketValues
      .groupBy("strategy_id", "metric_id", "date")
      .agg(
        sum(col("bucket_sum")).as("total_sum"),
        sum(col("exposed_cnt")).as("total_cnt"),
        count(lit(1)).as("n_buckets"))
      .withColumn("metric_value", col("total_sum") / col("total_cnt"))

  /** The expose mask of every (segment, strategy, date), joined to the metric
    * rows of that segment and date.
    */
  private def exposedMetrics(exposeBsi: DataFrame, metricBsi: DataFrame,
                             dates: Seq[Int]): DataFrame = {
    val spark = exposeBsi.sparkSession
    import spark.implicits._
    exposeBsi
      .crossJoin(dates.toDF("date"))
      .withColumn("expose",
        expr("bsi_cmp_const(offset_bsi, '<=', cast(date - min_expose_date + 1 as bigint))"))
      .join(metricBsi, Seq("segment_id", "date"))
  }
}
