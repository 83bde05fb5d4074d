package repro.checkpoint

import repro.dataflow.{ChannelId, InstanceId}

/** The checkpoint graph of Wang et al. (paper §III-B, Fig. 4), used by
  * the [[RollbackPropagation]] oracle.
  *
  * Nodes are durable checkpoints; there is a directed edge
  * c(i,x) -> c(j,y) when
  *   - i == j and y == x + 1 (consecutive checkpoints of one instance), or
  *   - i != j and at least one orphan message exists: a message sent by i
  *     *after* c(i,x) was taken and processed by j *before* c(j,y) was
  *     taken. With contiguous per-channel sequence numbers this reduces to
  *     `c(j,y).lastReceived(ch) > c(i,x).lastSent(ch)` for some channel
  *     ch: i -> j.
  */
final class CheckpointGraph(val ckpts: Map[InstanceId, IndexedSeq[CkptMeta]]) {

  /** Node handle: (instance, checkpoint index position in its list). */
  final case class Node(id: InstanceId, pos: Int) {
    def meta: CkptMeta = ckpts(id)(pos)
  }

  val nodes: IndexedSeq[Node] =
    ckpts.toIndexedSeq.sortBy(_._1.toString).flatMap { case (id, ms) =>
      ms.indices.map(Node(id, _))
    }

  /** Channels between different instances, derived from the seq vectors. */
  private val channels: IndexedSeq[(ChannelId, InstanceId, InstanceId)] = {
    val chs = ckpts.valuesIterator.flatten.flatMap(_.lastSent.keys).toSet
    chs.toIndexedSeq.sortBy(_.toString).map(ch => (ch, ch.from, ch.to))
  }

  /** Outgoing edges of a node (computed on demand; graphs are small). */
  def edges(n: Node): IndexedSeq[Node] = {
    val own =
      if (n.pos + 1 < ckpts(n.id).length) IndexedSeq(Node(n.id, n.pos + 1)) else IndexedSeq.empty
    val cross = for {
      (ch, from, to) <- channels
      if from == n.id && to != n.id
      sent = n.meta.lastSent.getOrElse(ch, 0L)
      toCkpts = ckpts.getOrElse(to, IndexedSeq.empty)
      pos <- toCkpts.indices
      if toCkpts(pos).lastReceived.getOrElse(ch, 0L) > sent
    } yield Node(to, pos)
    own ++ cross.distinct
  }

  /** Nodes reachable from `start` via one or more edges (strict reachability). */
  def strictlyReachable(start: Node): Set[Node] = {
    val seen = scala.collection.mutable.Set.empty[Node]
    val stack = scala.collection.mutable.Stack[Node]()
    edges(start).foreach(stack.push)
    while (stack.nonEmpty) {
      val n = stack.pop()
      if (!seen(n)) {
        seen += n
        edges(n).foreach(m => if (!seen(m)) stack.push(m))
      }
    }
    seen.toSet
  }

  /** True when the set of checkpoints (one per instance) has no orphan
    * message between any pair — i.e. it is a consistent recovery line.
    */
  def isConsistent(line: Map[InstanceId, CkptMeta]): Boolean =
    channels.forall { case (ch, from, to) =>
      (line.get(from), line.get(to)) match {
        case (Some(f), Some(t)) =>
          t.lastReceived.getOrElse(ch, 0L) <= f.lastSent.getOrElse(ch, 0L)
        case _ => true
      }
    }
}
