package repro.checkpoint

import repro.dataflow.{ChannelId, Msg}
import scala.collection.mutable

/** Sender-side durable in-flight message log (upstream backup).
  *
  * UNC/CIC append every outgoing data message; recovery extracts, per
  * channel, the messages with sequence numbers in
  * (receiver-checkpoint.lastReceived, sender-checkpoint.lastSent] — exactly
  * the in-flight channel state of the recovery line. Appends are modelled
  * as durable by the time of any failure (a write-ahead log on the send
  * path), which the paper's testbed also assumes.
  */
final class MessageLog {
  private val byChannel = mutable.Map.empty[ChannelId, mutable.ArrayBuffer[Msg]]
  private var bytes0: Long = 0L

  /** Append the next message of its channel; its seq must be the log's
    * length + 1, which keeps [[range]] positional.
    */
  def append(m: Msg): Unit = {
    val buf = byChannel.getOrElseUpdate(m.channel, mutable.ArrayBuffer.empty)
    require(m.seq == buf.length + 1L,
      s"message log of ${m.channel}: appended seq ${m.seq}, expected ${buf.length + 1L}")
    buf += m
    bytes0 += m.wireBytes
  }

  /** Drop the messages of `ch` with seq > `lastSent`: after a rollback the
    * sender re-sends them under the same seqs.
    */
  def truncate(ch: ChannelId, lastSent: Long): Unit =
    byChannel.get(ch).foreach { buf =>
      val keep = math.min(buf.length.toLong, math.max(0L, lastSent)).toInt
      bytes0 -= buf.view.drop(keep).map(_.wireBytes.toLong).sum
      buf.dropRightInPlace(buf.length - keep)
    }

  /** Messages with loExcl < seq <= hiIncl, in seq order. */
  def range(ch: ChannelId, loExcl: Long, hiIncl: Long): IndexedSeq[Msg] =
    byChannel.get(ch) match {
      case None      => IndexedSeq.empty
      case Some(buf) =>
        // Seqs are contiguous and 1-based, so the slice is positional.
        val from = math.max(0L, loExcl).toInt
        val until = math.min(buf.length.toLong, math.max(0L, hiIncl)).toInt
        if (from >= until) IndexedSeq.empty else buf.slice(from, until).toIndexedSeq
    }

  def totalBytes: Long   = bytes0
  def totalMessages: Long = byChannel.valuesIterator.map(_.size.toLong).sum
}
