package org.apache.spark

/** Drains Spark's asynchronous listener bus, which has no public drain. The
  * benchmark calls it after an op's wall clock has stopped, so that the CPU
  * its listener counts belongs to the op and the wait costs no wall time.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
