package repro.bsi

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import org.roaringbitmap.RoaringBitmap

/** Serialization of a [[BSI]] to/from `Array[Byte]` — the on-wire format of the
  * encoded `BinaryType` columns that carry BSIs through DataFrames.
  *
  * Layout: `int32 numSlices`, then for each slice the portable Roaring
  * serialization (self-delimiting). `null`/empty arrays decode to `BSI.empty`
  * so outer joins and absent groups need no special casing.
  */
object BSICodec {

  /** Serialize; `BSI.empty` encodes as a 4-byte zero header. */
  def serialize(bsi: BSI): Array[Byte] = {
    val bos = new ByteArrayOutputStream(64)
    val out = new DataOutputStream(bos)
    out.writeInt(bsi.numSlices)
    var i = 0
    while (i < bsi.numSlices) {
      bsi.slice(i).serialize(out)
      i += 1
    }
    out.flush()
    bos.toByteArray
  }

  /** Deserialize; `null` and zero-length input decode to `BSI.empty`. */
  def deserialize(bytes: Array[Byte]): BSI = {
    if (bytes == null || bytes.isEmpty) return BSI.empty
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    val n  = in.readInt()
    if (n == 0) return BSI.empty
    val slices = new Array[RoaringBitmap](n)
    var i = 0
    while (i < n) {
      val bm = new RoaringBitmap()
      bm.deserialize(in)
      slices(i) = bm
      i += 1
    }
    BSI.fromSlices(slices)
  }
}
