package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow.{ChannelId, InstanceId}

/** Unit tests of the recovery line, including the paper's Fig. 4 example
  * and the Fig. 5 domino-effect scenario. Every case computes the line with
  * the main-path orphan fixpoint and checks it against Algorithm 1.
  */
class RollbackPropagationSpec extends AnyFunSuite {

  private def inst(i: Int) = InstanceId(s"o$i", 0)
  private def ch(i: Int, j: Int) = ChannelId(inst(i), inst(j))

  /** Build a checkpoint meta from seq vectors. */
  private def meta(i: Int, idx: Int, sent: Map[ChannelId, Long],
      recv: Map[ChannelId, Long]): CkptMeta =
    CkptMeta(inst(i), idx, if (idx == 0) InitialCkpt else LocalCkpt,
      takenAt = idx.toLong, durableAt = idx.toLong, stateBytes = 0L, snapshot = (),
      lastSent = sent, lastReceived = recv, srcOffset = 0L,
      counted = true, syncMicros = 0L)

  test("latest checkpoints form the line when there are no orphans") {
    // o1 -> o2; o1 sent 10 by ckpt1; o2 received 10 by ckpt1.
    val ckpts = Map(
      inst(1) -> IndexedSeq(meta(1, 0, Map(ch(1, 2) -> 0L), Map.empty),
        meta(1, 1, Map(ch(1, 2) -> 10L), Map.empty)),
      inst(2) -> IndexedSeq(meta(2, 0, Map.empty, Map(ch(1, 2) -> 0L)),
        meta(2, 1, Map.empty, Map(ch(1, 2) -> 10L))),
    )
    val (line, rolled) = RollbackPropagation.checkedFixpoint(ckpts)
    assert(line(inst(1)).idx == 1 && line(inst(2)).idx == 1)
    assert(rolled.values.forall(_ == 0))
  }

  test("orphan message rolls the receiver back (paper Fig. 2b)") {
    // o1's latest ckpt has sent=5; o2's latest received=8 => orphans 6..8.
    val ckpts = Map(
      inst(1) -> IndexedSeq(meta(1, 0, Map(ch(1, 2) -> 0L), Map.empty),
        meta(1, 1, Map(ch(1, 2) -> 5L), Map.empty)),
      inst(2) -> IndexedSeq(meta(2, 0, Map.empty, Map(ch(1, 2) -> 0L)),
        meta(2, 1, Map.empty, Map(ch(1, 2) -> 4L)),
        meta(2, 2, Map.empty, Map(ch(1, 2) -> 8L))),
    )
    val (line, _) = RollbackPropagation.checkedFixpoint(ckpts)
    assert(line(inst(1)).idx == 1)
    assert(line(inst(2)).idx == 1, "o2 must fall back to the ckpt with recv<=5")
  }

  test("in-flight (non-orphan) messages do not invalidate the line") {
    // o1 sent 10, o2 only received 6: messages 7..10 are in-flight, fine.
    val ckpts = Map(
      inst(1) -> IndexedSeq(meta(1, 0, Map(ch(1, 2) -> 0L), Map.empty),
        meta(1, 1, Map(ch(1, 2) -> 10L), Map.empty)),
      inst(2) -> IndexedSeq(meta(2, 0, Map.empty, Map(ch(1, 2) -> 0L)),
        meta(2, 1, Map.empty, Map(ch(1, 2) -> 6L))),
    )
    val g = new CheckpointGraph(ckpts)
    val (line, _) = RollbackPropagation.checkedFixpoint(ckpts)
    assert(line(inst(1)).idx == 1 && line(inst(2)).idx == 1)
    assert(g.isConsistent(line))
  }

  test("cascading rollback across three operators") {
    // Chain o1 -> o2 -> o3; each receiver checkpointed after consuming
    // messages its upstream sent post-checkpoint.
    val ckpts = Map(
      inst(1) -> IndexedSeq(meta(1, 0, Map(ch(1, 2) -> 0L), Map.empty),
        meta(1, 1, Map(ch(1, 2) -> 5L), Map.empty)),
      inst(2) -> IndexedSeq(
        meta(2, 0, Map(ch(2, 3) -> 0L), Map(ch(1, 2) -> 0L)),
        meta(2, 1, Map(ch(2, 3) -> 3L), Map(ch(1, 2) -> 4L)),
        meta(2, 2, Map(ch(2, 3) -> 9L), Map(ch(1, 2) -> 8L))), // orphan from o1
      inst(3) -> IndexedSeq(
        meta(3, 0, Map.empty, Map(ch(2, 3) -> 0L)),
        meta(3, 1, Map.empty, Map(ch(2, 3) -> 7L))), // depends on o2's rolled-back sends
    )
    val (line, _) = RollbackPropagation.checkedFixpoint(ckpts)
    assert(line(inst(1)).idx == 1)
    assert(line(inst(2)).idx == 1)
    assert(line(inst(3)).idx == 0, "o3 received 7 > o2@1.sent=3 => rolls to initial")
  }

  test("domino effect on a cycle unwinds to the initial line (paper Fig. 5)") {
    // o1 -> o2 -> o1 cycle where every checkpoint has an orphan w.r.t. the
    // other operator's previous checkpoint.
    val ckpts = Map(
      inst(1) -> IndexedSeq(
        meta(1, 0, Map(ch(1, 2) -> 0L), Map(ch(2, 1) -> 0L)),
        meta(1, 1, Map(ch(1, 2) -> 2L), Map(ch(2, 1) -> 1L)),
        meta(1, 2, Map(ch(1, 2) -> 4L), Map(ch(2, 1) -> 3L))),
      inst(2) -> IndexedSeq(
        meta(2, 0, Map(ch(2, 1) -> 0L), Map(ch(1, 2) -> 0L)),
        meta(2, 1, Map(ch(2, 1) -> 2L), Map(ch(1, 2) -> 3L)),
        meta(2, 2, Map(ch(2, 1) -> 4L), Map(ch(1, 2) -> 5L))),
    )
    val (line, rolled) = RollbackPropagation.checkedFixpoint(ckpts)
    assert(line(inst(1)).idx == 0 && line(inst(2)).idx == 0,
      s"domino should unwind to scratch, got ${line.view.mapValues(_.idx).toMap}")
    assert(rolled.values.sum == 4)
  }

  test("returned line is always consistent on randomized histories") {
    val rnd = new scala.util.Random(99)
    (1 to 50).foreach { _ =>
      // Random two-operator history: o1 sends a monotone stream to o2 and
      // both checkpoint at random cut points of the stream.
      val cuts1 = (1 to 3).map(_ => rnd.nextInt(50).toLong).sorted
      val cuts2 = (1 to 3).map(_ => rnd.nextInt(50).toLong).sorted
      val ckpts = Map(
        inst(1) -> (meta(1, 0, Map(ch(1, 2) -> 0L), Map.empty) +:
          cuts1.zipWithIndex.map { case (c, i) =>
            meta(1, i + 1, Map(ch(1, 2) -> c), Map.empty)
          }.toIndexedSeq),
        inst(2) -> (meta(2, 0, Map.empty, Map(ch(1, 2) -> 0L)) +:
          cuts2.zipWithIndex.map { case (c, i) =>
            meta(2, i + 1, Map.empty, Map(ch(1, 2) -> c))
          }.toIndexedSeq),
      )
      val g = new CheckpointGraph(ckpts)
      val (line, _) = RollbackPropagation.checkedFixpoint(ckpts)
      assert(g.isConsistent(line))
      assert(line(inst(2)).lastReceived.getOrElse(ch(1, 2), 0L) <=
        line(inst(1)).lastSent.getOrElse(ch(1, 2), 0L))
    }
  }

  test("stepping past an initial checkpoint fails with the channel and both seqs") {
    // o2's initial checkpoint claims 3 messages o1's initial never sent.
    val ckpts = Map(
      inst(1) -> IndexedSeq(meta(1, 0, Map(ch(1, 2) -> 0L), Map.empty)),
      inst(2) -> IndexedSeq(meta(2, 0, Map.empty, Map(ch(1, 2) -> 3L))),
    )
    val err = intercept[IllegalArgumentException](Recovery.maxConsistentLine(ckpts))
    assert(err.getMessage.contains(ch(1, 2).toString))
    assert(err.getMessage.contains("lastSent 0") && err.getMessage.contains("lastReceived 3"))
  }
}
