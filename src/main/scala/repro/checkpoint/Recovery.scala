package repro.checkpoint

import repro.dataflow._
import scala.collection.mutable

/** Restart-time model and shared recovery-plan construction for the logged
  * (UNC/CIC) protocols.
  *
  * Restart time (paper §V) covers state reload plus, for logged protocols,
  * running the recovery-line algorithm (insignificant — paper §VII-B) and
  * fetching/preparing the messages to replay (the dominant cost that makes
  * UNC/CIC restarts up to 10x slower than COOR at high parallelism).
  */
object Recovery {

  /** Per-channel fetch handshake with the log store. */
  private val ReplayFetchBaseMicros = 500L
  /** Per-message preparation (deserialize, re-enqueue). */
  private val ReplayPrepPerMsgMicros = 3L
  /** Modelled cost per checkpoint-graph node of the recovery-line search. */
  private val LineAlgoPerNodeMicros = 1L

  /** Workers reload their instances' states sequentially; workers are
    * parallel, so restart is the max across workers.
    */
  def stateLoadMicros(rt: ProtocolRuntime, line: Map[InstanceId, CkptMeta]): Long = {
    val perWorker = line.groupBy(_._1.idx).map { case (_, metas) =>
      metas.valuesIterator.map(m => rt.cfg.uploadMicros(m.stateBytes)).sum
    }
    if (perWorker.isEmpty) 0L else perWorker.max
  }

  /** Replay-fetch/prep cost, max across (receiving) workers. */
  def replayPrepMicros(rt: ProtocolRuntime, replay: Map[ChannelId, IndexedSeq[Msg]]): Long = {
    val perWorker = replay.groupBy(_._1.to.idx).map { case (_, chans) =>
      chans.iterator.map { case (_, msgs) =>
        val bytes = msgs.iterator.map(_.wireBytes.toLong).sum
        ReplayFetchBaseMicros + math.round(bytes / 1024.0 * rt.cfg.storeMicrosPerKb) +
          ReplayPrepPerMsgMicros * msgs.size
      }.sum
    }
    if (perWorker.isEmpty) 0L else perWorker.max
  }

  /** The maximum consistent recovery line over `ckpts` (each instance's
    * durable checkpoints, oldest first) as an orphan fixpoint.
    *
    * Every instance starts at its latest checkpoint. A worklist of
    * channels is drained; whenever the receiver's checkpoint has consumed
    * more of a channel than the sender's has sent
    * (`line(ch.to).lastReceived(ch) > line(ch.from).lastSent(ch)`, an
    * orphan), the receiver steps back one checkpoint and its out-channels
    * are queued again. Positions only move back, and only past checkpoints
    * that no consistent line can contain, so the fixpoint is the maximum
    * orphan-free line. By Netzer & Xu (IEEE TPDS 1995) that is the line
    * Wang et al.'s rollback propagation (paper Algorithm 1) returns; the
    * work is O(channels x checkpoints).
    *
    * @return (recovery line, number of checkpoints rolled past per instance)
    */
  def maxConsistentLine(ckpts: Map[InstanceId, IndexedSeq[CkptMeta]])
      : (Map[InstanceId, CkptMeta], Map[InstanceId, Int]) = {
    ckpts.foreach { case (id, ms) =>
      require(ms.nonEmpty, s"$id has no checkpoint; every instance needs its initial one")
    }
    // Channels between distinct instances, from the seq vectors.
    val channels = ckpts.valuesIterator.flatMap(_.iterator.flatMap(_.lastSent.keysIterator))
      .filter(ch => ch.from != ch.to && ckpts.contains(ch.from) && ckpts.contains(ch.to))
      .toSet.toIndexedSeq
    val outOf = channels.groupBy(_.from)
    val pos = mutable.Map.from(ckpts.map { case (id, ms) => id -> (ms.length - 1) })
    def at(id: InstanceId): CkptMeta = ckpts(id)(pos(id))
    def sent(ch: ChannelId): Long = at(ch.from).lastSent.getOrElse(ch, 0L)
    def received(ch: ChannelId): Long = at(ch.to).lastReceived.getOrElse(ch, 0L)

    val work = mutable.Queue.from(channels)
    val queued = mutable.Set.from(channels)
    while (work.nonEmpty) {
      val ch = work.dequeue()
      queued -= ch
      val before = pos(ch.to)
      while (received(ch) > sent(ch)) {
        require(pos(ch.to) > 0,
          s"recovery line would step past the initial checkpoint of ${ch.to}: channel $ch " +
            s"has sender lastSent ${sent(ch)} < receiver lastReceived ${received(ch)}; " +
            "initial checkpoints must form a consistent line")
        pos(ch.to) -= 1
      }
      if (pos(ch.to) != before)
        outOf.getOrElse(ch.to, Nil).foreach(c => if (queued.add(c)) work.enqueue(c))
    }
    channels.find(ch => received(ch) > sent(ch)).foreach { ch =>
      sys.error(s"inconsistent recovery line: orphans on channel $ch " +
        s"(sender lastSent ${sent(ch)}, receiver lastReceived ${received(ch)})")
    }

    val line = pos.map { case (id, p) => id -> ckpts(id)(p) }.toMap
    val rolledPast = pos.map { case (id, p) => id -> (ckpts(id).length - 1 - p) }.toMap
    (line, rolledPast)
  }

  /** Full UNC/CIC recovery plan: compute the maximum consistent line over
    * durable checkpoints, extract per-channel replay ranges
    * (receiver.lastReceived, sender.lastSent] from the message log, and
    * price the restart.
    */
  def planLogged(rt: ProtocolRuntime, failTime: Long): RecoveryPlan = {
    val ckpts = rt.graph.instances.map(id => id -> rt.store.durable(id, failTime)).toMap
    val (line, rolledPast) = maxConsistentLine(ckpts)

    // Invalid checkpoints: counted checkpoints the algorithm rolled past —
    // they cannot be part of this (or any fresher) consistent recovery line.
    val invalid = rolledPast.iterator.map { case (id, n) =>
      if (n == 0) 0 else ckpts(id).takeRight(n).count(_.counted)
    }.sum

    // In-flight channel state of the line, from the sender-side logs.
    val replay: Map[ChannelId, IndexedSeq[Msg]] = (for {
      (id, meta) <- line.iterator
      (ch, sent) <- meta.lastSent.iterator
      recvMeta = line(ch.to)
      lo = recvMeta.lastReceived.getOrElse(ch, 0L)
      if lo < sent
    } yield ch -> rt.log.range(ch, lo, sent)).toMap

    val nNodes = ckpts.valuesIterator.map(_.size).sum
    val lineAlgo = LineAlgoPerNodeMicros * nNodes
    val restart = stateLoadMicros(rt, line) + lineAlgo + replayPrepMicros(rt, replay)
    RecoveryPlan(line, replay, restart, invalid, lineAlgo)
  }
}
