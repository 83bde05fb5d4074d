package repro.dataflow

import repro.checkpoint.CkptKind
import scala.collection.mutable

/** Mutable runtime state of one operator instance.
  *
  * Holds per-channel FIFO inboxes, channel blocking flags (COOR alignment),
  * sequence counters and the exactly-once ledger hook (sequence contiguity
  * is asserted by the Runtime when a record is applied).
  */
final class Instance(
    val id: InstanceId,
    val spec: OperatorSpec,
    val logic: OperatorLogic,
    val inCh: IndexedSeq[ChannelId],
    val outCh: IndexedSeq[ChannelId],
) {
  /** FIFO inbox per input channel: (arrivalTime, msg). */
  val inbox: Map[ChannelId, mutable.Queue[(Long, Msg)]] =
    inCh.map(c => c -> mutable.Queue.empty[(Long, Msg)]).toMap

  /** Channels blocked during COOR marker alignment. */
  val blocked: mutable.Set[ChannelId] = mutable.Set.empty

  /** Instance is busy (processing/snapshotting) until this instant. */
  var busyUntil: Long = 0L

  /** Per-out-channel sequence counters (last assigned). */
  val lastSent: mutable.Map[ChannelId, Long] =
    mutable.Map.from(outCh.map(_ -> 0L))

  /** Per-in-channel last *applied* sequence (dedup + exactly-once ledger). */
  val lastReceived: mutable.Map[ChannelId, Long] =
    mutable.Map.from(inCh.map(_ -> 0L))

  /** Next replayable-input offset (sources only). */
  var srcOffset: Long = 0L

  /** Index the next checkpoint of this instance will get (0 = initial). */
  var nextCkptIdx: Int = 1

  /** A checkpoint requested while busy, executed at the next idle point. */
  var pendingCkpt: Option[CkptKind] = None

  /** COOR: channels from which the current round's marker has arrived. */
  val markedChannels: mutable.Set[ChannelId] = mutable.Set.empty
  /** COOR: round currently being aligned, if any. */
  var aligningRound: Option[Int] = None
  /** COOR alignment bookkeeping: when the first marker of the round arrived. */
  var alignStart: Long = 0L

  def isIdleAt(t: Long): Boolean = busyUntil <= t

  /** Earliest pending (arrival, channel) among unblocked non-empty inboxes. */
  def nextChannelWork: Option[(Long, ChannelId)] = {
    var best: Option[(Long, ChannelId)] = None
    for (c <- inCh if !blocked(c)) {
      val q = inbox(c)
      if (q.nonEmpty) {
        val t = q.head._1
        if (best.forall(t < _._1)) best = Some((t, c))
      }
    }
    best
  }

  /** Reset all volatile runtime structures (on failure). */
  def dropVolatile(): Unit = {
    inbox.values.foreach(_.clear())
    blocked.clear()
    markedChannels.clear()
    aligningRound = None
    pendingCkpt = None
    busyUntil = 0L
  }

  /** Total serialized state, incl. a fixed metadata overhead per channel. */
  def stateBytes: Long =
    (if (spec.counted) logic.stateBytes else 0L) + 8L * (inCh.size + outCh.size) + 16L
}
