package repro.props

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.checkpoint._
import repro.dataflow.{ChannelId, InstanceId}
import scala.collection.mutable

/** The main-path orphan fixpoint (`Recovery.maxConsistentLine`) equals the
  * paper's Algorithm 1 on random executions of 2–6 processes over a random
  * channel graph that always contains a cycle.
  */
object RecoveryLineProps extends Properties("RecoveryLine") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(3000)

  /** An execution: `n` processes, extra channels beyond the ring
    * 0 -> 1 -> ... -> n-1 -> 0, and steps `(process, kind, pick)` where
    * kind 0 sends on an out-channel, 1 receives in order on an in-channel
    * with unreceived messages and 2 checkpoints; `pick` chooses the channel.
    */
  final case class Execution(n: Int, extra: List[(Int, Int)], steps: List[(Int, Int, Int)])

  private val executions: Gen[Execution] = for {
    n <- Gen.choose(2, 6)
    extra <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    len <- Gen.choose(0, 80)
    steps <- Gen.listOfN(len, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, 2), Gen.choose(0, 999)))
  } yield Execution(n, extra, steps)

  private def proc(i: Int) = InstanceId(s"p$i", 0)

  /** Each process's checkpoints, oldest first, with the seq vectors
    * recorded when each was taken (checkpoint 0 is the empty initial one).
    */
  def history(e: Execution): Map[InstanceId, IndexedSeq[CkptMeta]] = {
    val channels = ((0 until e.n).map(i => (i, (i + 1) % e.n)) ++ e.extra)
      .filter { case (i, j) => i != j }.distinct
      .map { case (i, j) => ChannelId(proc(i), proc(j)) }
    val outs = channels.groupBy(_.from).withDefaultValue(IndexedSeq.empty)
    val ins = channels.groupBy(_.to).withDefaultValue(IndexedSeq.empty)
    val sent = mutable.Map.from(channels.map(_ -> 0L))
    val received = mutable.Map.from(channels.map(_ -> 0L))
    val ckpts = (0 until e.n).map(i => proc(i) -> mutable.ArrayBuffer.empty[CkptMeta]).toMap

    def checkpoint(p: InstanceId): Unit = {
      val idx = ckpts(p).length
      ckpts(p) += CkptMeta(p, idx, if (idx == 0) InitialCkpt else LocalCkpt, idx.toLong,
        idx.toLong, 0L, (), outs(p).map(c => c -> sent(c)).toMap,
        ins(p).map(c => c -> received(c)).toMap, 0L, counted = true, syncMicros = 0L)
    }

    (0 until e.n).foreach(i => checkpoint(proc(i)))
    e.steps.foreach { case (i, kind, pick) =>
      val p = proc(i)
      kind match {
        case 0 =>
          val out = outs(p)
          if (out.nonEmpty) sent(out(pick % out.size)) += 1
        case 1 =>
          val pending = ins(p).filter(c => received(c) < sent(c))
          if (pending.nonEmpty) received(pending(pick % pending.size)) += 1
        case _ => checkpoint(p)
      }
    }
    ckpts.map { case (p, ms) => p -> ms.toIndexedSeq }
  }

  property("orphan fixpoint equals Algorithm 1 on cyclic executions") =
    Prop.forAll(executions) { e =>
      val h = history(e)
      val fixpoint = Recovery.maxConsistentLine(h)
      val oracle = RollbackPropagation.recoveryLine(new CheckpointGraph(h))
      Prop.classify(fixpoint._2.valuesIterator.sum > 0, "rolled back") {
        (fixpoint == oracle) :| s"fixpoint ${fixpoint._2} vs Algorithm 1 ${oracle._2}"
      }
    }
}
