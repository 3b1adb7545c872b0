package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.types._

/** A user-predefined equality join from FK-side table F to PK-side table P
  * (§3). `ridCol` is the system column materialized into F.
  */
final case class PredefJoin(fTable: String, fkCol: String, pTable: String, pkCol: String) {
  def ridCol: String = s"rid_$fkCol"
}

/** RID materialization (§3), the `PREDEFINE JOIN` / `ALTER TABLE` analogue,
  * as array passes over a table collected to the driver.
  */
object RidMaterializer {
  /** Dense row IDs: the row positions in RID order, so row `order(r)` gets
    * `__rid` = r. RIDs are assigned once and then fixed (they are pointers,
    * §6), so the order is a total sort on the primary key: ascending,
    * lexicographic over composite keys, NULL first, and the order SQL's
    * `ORDER BY` gives (strings by [[CodePointOrder]]; -0.0 = 0.0
    * and NaN above all for floats). Equal keys keep their input order.
    */
  def ridOrder(rows: Array[Row], schema: StructType, pkCols: Seq[String]): Array[Int] = {
    val cmps = pkCols.map(c => columnOrder(rows, schema.fieldIndex(c), schema(c).dataType)).toArray
    val order = Array.tabulate[Integer](rows.length)(Integer.valueOf)
    java.util.Arrays.sort(order, (a: Integer, b: Integer) => {
      var r = 0
      var k = 0
      while (r == 0 && k < cmps.length) { r = cmps(k)(a, b); k += 1 }
      r
    })
    order.map(_.intValue)
  }

  private def columnOrder(rows: Array[Row], c: Int, dt: DataType): (Int, Int) => Int = {
    val nulls = rows.map(_.isNullAt(c))
    val values: (Int, Int) => Int = dt match {
      case LongType | IntegerType | ShortType | ByteType =>
        val a = rows.map(r => if (r.isNullAt(c)) 0L else r.get(c).asInstanceOf[Number].longValue)
        (i, j) => java.lang.Long.compare(a(i), a(j))
      case DoubleType | FloatType =>
        val a = rows.map(r => if (r.isNullAt(c)) 0.0 else r.get(c).asInstanceOf[Number].doubleValue)
        (i, j) => if (a(i) == a(j)) 0 else java.lang.Double.compare(a(i), a(j))
      case StringType =>
        val a = rows.map(_.getString(c))
        (i, j) => CodePointOrder.compare(a(i), a(j))
      case _ =>
        val a = rows.map(_.get(c).asInstanceOf[Comparable[Any]])
        (i, j) => a(i).compareTo(a(j))
    }
    (i, j) =>
      if (nulls(i)) { if (nulls(j)) 0 else -1 }
      else if (nulls(j)) 1
      else values(i, j)
  }

  /** `rid_<fk>` for every F row and the number of dangling FKs: the RID of
    * the P row whose key equals the FK, or -1 when the FK is NULL or matches
    * no P row (it dangles, and matches nothing, exactly as the value join
    * would). P's rows are in RID order. A repeated P key fails, naming
    * `pName`: each F row points at one P row.
    */
  def rids(f: Array[Row], fkIdx: Int, p: Array[Row], pkIdx: Int, pName: String): (Array[Int], Long) = {
    val byKey = new LongIntMap(p.length)
    var i = 0
    while (i < p.length) {
      if (!p(i).isNullAt(pkIdx) && !byKey.putNew(p(i).getAs[Number](pkIdx).longValue, i))
        throw new IllegalArgumentException(
          s"predefined join key $pName is not unique: ${p(i).get(pkIdx)} repeats")
      i += 1
    }
    val out = new Array[Int](f.length)
    var dangling = 0L
    i = 0
    while (i < f.length) {
      out(i) = if (f(i).isNullAt(fkIdx)) -1 else byKey(f(i).getAs[Number](fkIdx).longValue)
      if (out(i) < 0) dangling += 1
      i += 1
    }
    (out, dangling)
  }

  /** Open-addressing map from primitive long keys to non-negative ints. */
  private final class LongIntMap(n: Int) {
    private val cap = Integer.highestOneBit(math.max(2 * n, 2) - 1) << 1
    private val shift = 64 - Integer.numberOfTrailingZeros(cap)
    private val keys = new Array[Long](cap)
    private val vals = { val a = new Array[Int](cap); java.util.Arrays.fill(a, -1); a }

    private def slot(k: Long): Int = {
      var s = ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt
      while (vals(s) >= 0 && keys(s) != k) s = (s + 1) & (cap - 1)
      s
    }

    /** Map `k` to `v`; false if `k` is already mapped. */
    def putNew(k: Long, v: Int): Boolean = {
      val s = slot(k)
      vals(s) < 0 && { keys(s) = k; vals(s) = v; true }
    }

    /** The value of `k`, or -1. */
    def apply(k: Long): Int = vals(slot(k))
  }
}

/** The predefined-join catalog: raw tables, RID-extended tables, predefined
  * joins, and CSR RID indices. One instance per benchmark database.
  */
final class GrainCatalog(val spark: SparkSession) {
  import scala.collection.mutable

  private val rawTables = mutable.LinkedHashMap[String, DataFrame]()
  private val extTables = mutable.LinkedHashMap[String, DataFrame]()
  private val rowCounts = mutable.LinkedHashMap[String, Long]()
  private val pkColsOf  = mutable.LinkedHashMap[String, Seq[String]]()
  /** (fTable, fkCol) -> the materialized `rid_<fk>` column, in F's RID order. */
  private val ridArrays = mutable.LinkedHashMap[(String, String), Array[Int]]()
  val predefined: mutable.ArrayBuffer[PredefJoin] = mutable.ArrayBuffer()
  /** (fTable, fkCol) -> CSR index keyed by P RIDs. */
  val ridIndices: mutable.LinkedHashMap[(String, String), RidIndexCsr] = mutable.LinkedHashMap()

  private var frozen = false

  /** Register a base table; `pkCols` defines the deterministic RID order. */
  def register(name: String, df: DataFrame, pkCols: Seq[String]): Unit = {
    require(!rawTables.contains(name), s"table $name already registered")
    require(!frozen, s"cannot register $name after freeze()")
    rawTables(name) = df
    pkColsOf(name) = pkCols
  }

  /** Single-column primary key, if the table has one (point-lookup index). */
  def pk(name: String): Option[String] =
    pkColsOf.get(name).filter(_.size == 1).map(_.head)

  def predefine(pj: PredefJoin): Unit = {
    require(rawTables.contains(pj.fTable) && rawTables.contains(pj.pTable),
      s"unknown table in $pj")
    require(!frozen, s"cannot predefine $pj after freeze()")
    predefined += pj
  }

  /** (fTable, fkCol) -> number of dangling FKs (materialized RID = -1).
    * FK-FK RID rewrites are only sound when both sides are dangling-free
    * (otherwise two distinct missing FK values would both map to -1 and
    * spuriously join).
    */
  val danglingCounts: mutable.LinkedHashMap[(String, String), Long] = mutable.LinkedHashMap()

  /** Materialize RIDs; call once after all `predefine`s. Each table reaches
    * the driver through one `collect`; `__rid` and every `rid_<fk>` are then
    * array passes (§3). The extended tables are local DataFrames over the
    * raw rows in RID order with `__rid` and the `rid_*` columns appended.
    */
  def freeze(): Unit = {
    require(!frozen, "freeze() called twice")
    val sorted = rawTables.map { case (name, df) =>
      val rows = df.collect()
      name -> RidMaterializer.ridOrder(rows, df.schema, pkColsOf(name)).map(rows)
    }
    predefined.foreach { pj =>
      def index(t: String, c: String): Int = {
        val f = rawTables(t).schema(c)
        require(Seq(LongType, IntegerType, ShortType, ByteType).contains(f.dataType),
          s"predefined join key $t.$c must be an integer column, not ${f.dataType}")
        rawTables(t).schema.fieldIndex(c)
      }
      val (rids, dangling) = RidMaterializer.rids(sorted(pj.fTable), index(pj.fTable, pj.fkCol),
        sorted(pj.pTable), index(pj.pTable, pj.pkCol), s"${pj.pTable}.${pj.pkCol}")
      ridArrays((pj.fTable, pj.fkCol)) = rids
      danglingCounts((pj.fTable, pj.fkCol)) = dangling
    }
    sorted.foreach { case (name, rows) =>
      val ridCols = predefined.filter(_.fTable == name)
      val ridVals = ridCols.map(pj => ridArrays((pj.fTable, pj.fkCol))).toArray
      val width = rawTables(name).schema.length
      val ext = Array.tabulate[Row](rows.length) { i =>
        val vs = new Array[Any](width + 1 + ridVals.length)
        var c = 0
        while (c < width) { vs(c) = rows(i).get(c); c += 1 }
        vs(width) = i.toLong
        c = 0
        while (c < ridVals.length) { vs(width + 1 + c) = ridVals(c)(i).toLong; c += 1 }
        new GenericRow(vs)
      }
      val schema = StructType(rawTables(name).schema.fields ++
        ("__rid" +: ridCols.map(_.ridCol)).map(StructField(_, LongType, nullable = false)))
      extTables(name) = spark.createDataFrame(java.util.Arrays.asList(ext: _*), schema)
      rowCounts(name) = rows.length.toLong
    }
    frozen = true
  }

  def danglingFree(fTable: String, fkCol: String): Boolean =
    danglingCounts.get((fTable, fkCol)).contains(0L)

  private def afterFreeze[T](m: mutable.Map[String, T], name: String): T =
    m.getOrElse(name, sys.error(s"table $name: unknown, or catalog not frozen"))

  def raw(name: String): DataFrame = rawTables(name)
  def ext(name: String): DataFrame = afterFreeze(extTables, name)
  def rows(name: String): Long = afterFreeze(rowCounts, name)
  def tableNames: Seq[String] = rawTables.keys.toSeq
  def rawMap: Map[String, DataFrame] = rawTables.toMap

  def findPredef(fTable: String, fkCol: String, pTable: String, pkCol: String): Option[PredefJoin] =
    predefined.find(pj =>
      pj.fTable == fTable && pj.fkCol == fkCol && pj.pTable == pTable && pj.pkCol == pkCol)

  /** Build the (possibly extended) RID index on (fTable, fkCol) (§5): a
    * counting sort of the materialized `rid_<fk>` column, kept in memory in
    * CSR form as the paper does. Positions are F RIDs, so each key's F-RID
    * list is ascending.
    *
    * @param extendedWith the second FK column of the relationship table to
    *        extend the index with (§5.2) — pass it explicitly so tables with
    *        more than two FKs never get an accidental wrong pairing
    */
  def buildRidIndex(fTable: String, fkCol: String,
                    extendedWith: Option[String] = None): RidIndexCsr = {
    def ridsOf(c: String): Array[Int] =
      ridArrays.getOrElse((fTable, c), sys.error(s"no predefined join on $fTable.$c"))
    val pj = predefined.find(p => p.fTable == fTable && p.fkCol == fkCol)
      .getOrElse(sys.error(s"no predefined join on $fTable.$fkCol"))
    val idx = RidIndexCsr.build(rows(pj.pTable).toInt, ridsOf(fkCol), extendedWith.map(ridsOf).orNull)
    ridIndices((fTable, fkCol)) = idx
    idx
  }

  /** A RID index on every predefined join: the relationship tables of
    * `extendedPairs` (table, fk, other fk) get the extended index in both
    * directions (§5.2), every other predefined join a plain one. Returns
    * this catalog. */
  def indexAll(extendedPairs: Seq[(String, String, String)]): GrainCatalog = {
    val ext = extendedPairs.flatMap { case (t, a, b) => Seq((t, a) -> b, (t, b) -> a) }.toMap
    predefined.foreach(pj => buildRidIndex(pj.fTable, pj.fkCol, ext.get((pj.fTable, pj.fkCol))))
    this
  }

  def ridIndex(fTable: String, fkCol: String): Option[RidIndexCsr] =
    ridIndices.get((fTable, fkCol))
}

object GrainCatalog {
  /** A frozen catalog over `tables`: each registered with its primary key
    * and every join in `predefs` predefined. It has no RID index yet
    * ([[GrainCatalog.indexAll]] builds them).
    */
  def build(spark: SparkSession, tables: Seq[(String, DataFrame)], pks: Map[String, Seq[String]],
            predefs: Seq[PredefJoin]): GrainCatalog = {
    val cat = new GrainCatalog(spark)
    tables.foreach { case (name, df) => cat.register(name, df, pks(name)) }
    predefs.foreach(cat.predefine)
    cat.freeze()
    cat
  }
}
