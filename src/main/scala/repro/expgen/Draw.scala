package repro.expgen

/** Deterministic scalar draws for the generators that fill arrays and BSIs
  * without Spark (Tables 5, 6 and 8), with the value shape of [[ExperimentGen]].
  */
object Draw {

  /** The splitmix64 finalizer: a well-mixed 64-bit hash of `x`. */
  def mix(x: Long): Long = {
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** A uniform draw in [0, 1) keyed by `x`. */
  def u01(x: Long): Double = (mix(x) >>> 11).toDouble / (1L << 53)

  /** A metric value in [1, rangeCard] from a uniform `u`: `rangeCard^(u³)`,
    * concentrated near small values (Fig. 5).
    */
  def value(rangeCard: Long, u: Double): Long =
    math.max(1L, math.pow(rangeCard.toDouble, u * u * u).toLong).min(rangeCard)
}
