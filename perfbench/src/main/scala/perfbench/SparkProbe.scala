package perfbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Totals of the Spark task metrics the benchmark reads. */
final case class SparkCounters(cpuNs: Long, gcMs: Long, tasks: Long, jobs: Long, shuffleBytes: Long) {
  def -(o: SparkCounters): SparkCounters =
    SparkCounters(cpuNs - o.cpuNs, gcMs - o.gcMs, tasks - o.tasks, jobs - o.jobs,
                  shuffleBytes - o.shuffleBytes)
}

/** A listener the benchmark installs on its own session: executor CPU, GC,
  * task and job counts and shuffle bytes of every task that ends. The
  * listener bus is asynchronous, so [[snapshot]] drains it first; callers take
  * snapshots only outside wall-clock intervals.
  */
final class SparkProbe(val spark: SparkSession) extends SparkListener {
  private val cpuNs, gcMs, tasks, jobs, shuffleBytes = new AtomicLong
  spark.sparkContext.addSparkListener(this)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      cpuNs.addAndGet(m.executorCpuTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }
  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }

  def snapshot(): SparkCounters = {
    ListenerBusAccess.drain(spark.sparkContext)
    SparkCounters(cpuNs.get, gcMs.get, tasks.get, jobs.get, shuffleBytes.get)
  }

  /** Run `body` and return its result with the counters of the tasks it ran. */
  def measure[T](body: => T): (T, SparkCounters) = {
    val before = snapshot()
    val r = body
    (r, snapshot() - before)
  }

  /** Add an op's counters to the tracer's per-layer Spark metrics. */
  def record(t: Tracer, c: SparkCounters): Unit = {
    t.add("spark.jobs", c.jobs.toDouble)
    t.add("spark.tasks", c.tasks.toDouble)
    t.add("spark.shuffle_bytes", c.shuffleBytes.toDouble)
    t.add("spark.gc_s", c.gcMs * 1e6)
  }

  /** Executor CPU of running `job` to a discarding sink; the median of
    * `reps` runs is added to the tracer under `name` as its own op. Used to
    * time one UDF on the workload's own cached rows.
    */
  def udfCpu(t: Tracer, name: String, reps: Int = 3)(job: => DataFrame): Unit = {
    val cpu = (1 to reps).map(_ => measure(job.write.format("noop").mode("overwrite").save())._2.cpuNs.toDouble)
    t.nextOp()
    t.add(name, Quantiles.median(cpu))
  }
}
