package org.apache.spark.sql.execution.columnar

import org.apache.spark.sql.execution.vectorized.WritableColumnVector
import org.apache.spark.sql.types.DataType

/** Spark's decoder of one cached primitive column, which is private to this
  * package: it reads `numRows` values of `dataType` from a cached batch's
  * column buffer, in whichever compression scheme the cache chose, into
  * `vector`. The same call backs Spark's own vectorized read of the cache.
  */
object ColumnDecoder {
  def decompress(buffer: Array[Byte], vector: WritableColumnVector, dataType: DataType,
                 numRows: Int): Unit =
    ColumnAccessor.decompress(buffer, vector, dataType, numRows)
}
