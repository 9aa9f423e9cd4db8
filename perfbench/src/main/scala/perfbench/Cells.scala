package perfbench

import org.apache.spark.sql.Row

import repro.core.Stats.{BucketedMetric, TTestResult}

/** Bucket rows keyed by (strategy, metric, date, bucket) → (sum, exposed count). */
object Cells {
  type Key   = (Long, Int, Int, Int)
  type Table = Map[Key, (Long, Long)]

  /** Rows with columns strategy_id, metric_id, date, bucket_id, bucket_sum,
    * exposed_cnt, in any numeric types.
    */
  def of(rows: Seq[Row]): Table = rows.map { r =>
    def l(n: String) = r.getAs[Any](n).asInstanceOf[Number].longValue
    (l("strategy_id"), l("metric_id").toInt, l("date").toInt, l("bucket_id").toInt) -> ((l("bucket_sum"), l("exposed_cnt")))
  }.toMap

  /** Per-(strategy, metric, date) totals of `a`. */
  def totals(a: Table): Map[(Long, Int, Int), (Long, Long)] =
    a.groupMapReduce { case ((st, m, d, _), _) => (st, m, d) }(_._2) { case ((s1, c1), (s2, c2)) => (s1 + s2, c1 + c2) }

  /** Per-(strategy, metric, date) totals from `Scorecard.metricValues` rows. */
  def totals(rows: Seq[Row]): Map[(Long, Int, Int), (Long, Long)] = rows.map { r =>
    def l(n: String) = r.getAs[Any](n).asInstanceOf[Number].longValue
    (l("strategy_id"), l("metric_id").toInt, l("date").toInt) -> ((l("total_sum"), l("total_cnt")))
  }.toMap

  /** Cells that differ; a missing cell reads (0, 0), as an empty bucket does. */
  def diff(a: Table, b: Table): Int =
    (a.keySet ++ b.keySet).count(k => a.getOrElse(k, (0L, 0L)) != b.getOrElse(k, (0L, 0L)))

  /** One cell's sum changed by one, to show that the check can fail. */
  def corrupt(a: Table): Table = { val (k, (s, c)) = a.head; a.updated(k, (s + 1, c)) }

  /** (strategy, metric) → per-bucket replicates on `nBuckets` ids from `first`. */
  def bucketed(a: Table, nBuckets: Int, first: Int): Map[(Long, Int), BucketedMetric] =
    a.groupBy { case ((st, m, _, _), _) => (st, m) }.map { case (k, cs) =>
      k -> repro.core.Stats.fromRows(cs.toSeq.map { case ((_, _, _, b), (s, c)) => (b, s, c) }, nBuckets, first)
    }

  /** Bit-for-bit equality of two test results (NaN equals NaN). */
  def sameTest(a: TTestResult, b: TTestResult): Boolean =
    a.productIterator.zip(b.productIterator).forall {
      case (x: Double, y: Double) => java.lang.Double.compare(x, y) == 0
      case (x, y)                 => x == y
    }

  /** Tests in `got` that differ from `ref` or are missing from either. */
  def diffTests[K](got: Map[K, TTestResult], ref: Map[K, TTestResult]): Int =
    (got.keySet ++ ref.keySet).count(k => !(got.contains(k) && ref.contains(k) && sameTest(got(k), ref(k))))
}
