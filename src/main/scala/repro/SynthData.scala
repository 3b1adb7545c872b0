package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Generators are deterministic in (sf, seed) so
  * the DuckDB oracle sees identical input.
  */
object SynthData {
  /** Partitions of every generated table, in this and the other
    * generators. `rand(seed)` draws per partition, so the data depend on
    * this count; fixing it makes a seed give the same tables on any core
    * count, and the tables the grainperf benchmark (pinned to two) measures.
    */
  val Partitions = 2

  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L
  private val NSupplierPerSf =    10_000L
  private val NPartsuppPerSf =   800_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    import spark.implicits._
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    val nSupp = n(NSupplierPerSf, sf)
    spark.range(0, n(NLineitemPerSf, sf), 1, Partitions).select(
      (rand(seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (rand(seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (rand(seed + 10) * nSupp  + 1).cast(LongType)    as "l_suppkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1, 1, Partitions).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed)     * nCust + 1).cast(LongType)             as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(seed + 1) * 3 + 1).cast("int"))         as "o_orderstatus",
      round(rand(seed + 2) * 500000 + 1000, 2)                 as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 3) * 2406).cast("int"))            as "o_orderdate",
      element_at(array(lit("1-URGENT"), lit("2-HIGH"), lit("3-MEDIUM"),
                       lit("4-NOT SPECIFIED"), lit("5-LOW")),
                 (rand(seed + 4) * 5 + 1).cast("int"))         as "o_orderpriority",
    )
  }

  def customer(spark: SparkSession, sf: Double = 0.01, seed: Long = 2): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NCustomerPerSf, sf) + 1, 1, Partitions).toDF("c_custkey").select(
      $"c_custkey",
      (rand(seed) * 25).cast(IntegerType)                as "c_nationkey",
      round(rand(seed + 1) * 10000 - 1000, 2)            as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (rand(seed + 2) * 5 + 1).cast("int"))   as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 5): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NPartPerSf, sf) + 1, 1, Partitions).toDF("p_partkey").select(
      $"p_partkey",
      element_at(array(lit("STANDARD"), lit("SMALL"), lit("MEDIUM"),
                       lit("LARGE"), lit("ECONOMY"), lit("PROMO")),
                 (rand(seed) * 6 + 1).cast("int"))              as "p_type",
      (rand(seed + 1) * 50 + 1).cast(IntegerType)               as "p_size",
      round(lit(900.0) + ($"p_partkey" % 1000) / 10.0, 2)       as "p_retailprice",
    )
  }

  def supplier(spark: SparkSession, sf: Double = 0.01, seed: Long = 6): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NSupplierPerSf, sf) + 1, 1, Partitions).toDF("s_suppkey").select(
      $"s_suppkey",
      (rand(seed) * 25).cast(IntegerType)            as "s_nationkey",
      round(rand(seed + 1) * 10000 - 1000, 2)        as "s_acctbal",
      concat(lit("Supplier#"), $"s_suppkey")         as "s_name",
    )
  }

  private val NationNames = Seq(
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
    "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES")
  private val NationRegions = Seq(
    0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1)
  private val RegionNames = Seq("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

  def nation(spark: SparkSession): DataFrame = {
    import spark.implicits._
    NationNames.zipWithIndex.map { case (nm, k) => (k, nm, NationRegions(k)) }
      .toDF("n_nationkey", "n_name", "n_regionkey")
  }

  def region(spark: SparkSession): DataFrame = {
    import spark.implicits._
    RegionNames.zipWithIndex.map { case (nm, k) => (k, nm) }
      .toDF("r_regionkey", "r_name")
  }

  def partsupp(spark: SparkSession, sf: Double = 0.01, seed: Long = 8): DataFrame = {
    import spark.implicits._
    val nPart = n(NPartPerSf, sf); val nSupp = n(NSupplierPerSf, sf)
    spark.range(1, n(NPartsuppPerSf, sf) + 1, 1, Partitions).toDF("ps_id").select(
      $"ps_id",
      (rand(seed)     * nPart + 1).cast(LongType)  as "ps_partkey",
      (rand(seed + 1) * nSupp + 1).cast(LongType)  as "ps_suppkey",
      round(rand(seed + 2) * 1000, 2)              as "ps_supplycost",
      (rand(seed + 3) * 10000).cast(IntegerType)   as "ps_availqty",
    )
  }

  /** Skewed key column — for join-skew / cardinality-estimation papers. */
  def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
               alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    import spark.implicits._
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k, alpha)).sum
    spark.range(0, rows, 1, Partitions).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k",
      rand(seed + 1) as "v",
    )
  }

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame = {
    import spark.implicits._
    spark.range(0, rows, 1, Partitions).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )
  }
}
