package grainperf

/** A fixed kernel timed right after every pass. The shared machines this
  * benchmark runs on change speed by up to 1.6x for seconds to minutes (a
  * busy-loop probe and the passes slow down together), so a raw pass time
  * measures the machine's state as much as the program. Each pass's time is
  * reported at the kernel's nominal speed: scaled by `NominalMs` over the
  * kernel's time after that pass.
  */
object Calibration {
  /** Kernel time, in ms, at which pass times are expressed: about what the
    * kernel takes on a quiet 4-vCPU Xeon VM at 2.1 GHz. */
  val NominalMs = 4.0

  // Boxed keys probed in a fixed random order: hashing and pointer chasing
  // through a 16 MB map, like the engines' hash joins, without allocating.
  private val Keys = 1 << 18
  private val boxed: Array[java.lang.Long] = Array.tabulate(Keys)(i => java.lang.Long.valueOf(i * 7919L))
  private val map = {
    val m = new java.util.HashMap[java.lang.Long, java.lang.Long]()
    boxed.foreach(k => m.put(k, k))
    m
  }
  private val order: Array[Int] = {
    val r = new scala.util.Random(7)
    Array.fill(80000)(r.nextInt(Keys))
  }
  @volatile private var sink = 0L

  private def probe(): Long = {
    var acc = 0L
    var i = 0
    while (i < order.length) {
      acc += map.get(boxed(order(i))).longValue
      i += 1
    }
    acc
  }

  /** Wall time of one run of the kernel, in ms. An untimed run first brings
    * the map back into cache, so the time does not depend on how much of it
    * the preceding pass evicted. */
  def kernelMs(): Double = {
    sink = probe()
    val t0 = System.nanoTime()
    sink += probe()
    (System.nanoTime() - t0) / 1e6
  }
}
