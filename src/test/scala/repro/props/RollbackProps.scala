package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import repro.checkpoint._
import repro.dataflow.{ChannelId, InstanceId}

/** ScalaCheck properties of the recovery-line machinery over randomized
  * monotone checkpoint histories on a 3-operator chain a -> b -> c. Each
  * line comes from the main-path orphan fixpoint, checked against
  * Algorithm 1.
  */
object RollbackProps extends Properties("RollbackPropagation") {

  private val a = InstanceId("a", 0)
  private val b = InstanceId("b", 0)
  private val c = InstanceId("c", 0)
  private val ab = ChannelId(a, b)
  private val bc = ChannelId(b, c)

  private def meta(id: InstanceId, idx: Int, sent: Map[ChannelId, Long],
      recv: Map[ChannelId, Long]): CkptMeta =
    CkptMeta(id, idx, if (idx == 0) InitialCkpt else LocalCkpt, idx.toLong, idx.toLong,
      0L, (), sent, recv, 0L, counted = true, syncMicros = 0L)

  /** Monotone non-decreasing cut sequence starting at 0. */
  private val cuts: Gen[List[Long]] =
    Gen.listOfN(4, Gen.choose(0L, 40L)).map(l => l.sorted)

  property("returned line is consistent and rolls back minimally per instance") =
    Prop.forAll(cuts, cuts, cuts, cuts) { (aSent, bRecv, bSent, cRecv) =>
      val ckpts = Map(
        a -> (meta(a, 0, Map(ab -> 0L), Map.empty) +: aSent.zipWithIndex.map {
          case (s, i) => meta(a, i + 1, Map(ab -> s), Map.empty)
        }.toIndexedSeq),
        b -> (meta(b, 0, Map(bc -> 0L), Map(ab -> 0L)) +:
          bRecv.zip(bSent).zipWithIndex.map { case ((r, s), i) =>
            meta(b, i + 1, Map(bc -> s), Map(ab -> r))
          }.toIndexedSeq),
        c -> (meta(c, 0, Map.empty, Map(bc -> 0L)) +: cRecv.zipWithIndex.map {
          case (r, i) => meta(c, i + 1, Map.empty, Map(bc -> r))
        }.toIndexedSeq),
      )
      val g = new CheckpointGraph(ckpts)
      val (line, rolled) = RollbackPropagation.checkedFixpoint(ckpts)
      val consistent = g.isConsistent(line)
      val bounds = rolled.forall { case (id, n) => n >= 0 && n < ckpts(id).length }
      consistent && bounds
    }

  property("a no-orphan history keeps every latest checkpoint") =
    Prop.forAll(Gen.choose(0L, 50L)) { x =>
      // b checkpointed having received exactly what a had sent.
      val ckpts = Map(
        a -> IndexedSeq(meta(a, 0, Map(ab -> 0L), Map.empty),
          meta(a, 1, Map(ab -> x), Map.empty)),
        b -> IndexedSeq(meta(b, 0, Map.empty, Map(ab -> 0L)),
          meta(b, 1, Map.empty, Map(ab -> x))),
      )
      val (line, _) = RollbackPropagation.checkedFixpoint(ckpts)
      line(a).idx == 1 && line(b).idx == 1
    }

  property("replay ranges implied by the line are never negative") =
    Prop.forAll(cuts, cuts) { (aSent, bRecv) =>
      val ckpts = Map(
        a -> (meta(a, 0, Map(ab -> 0L), Map.empty) +: aSent.zipWithIndex.map {
          case (s, i) => meta(a, i + 1, Map(ab -> s), Map.empty)
        }.toIndexedSeq),
        b -> (meta(b, 0, Map.empty, Map(ab -> 0L)) +: bRecv.zipWithIndex.map {
          case (r, i) => meta(b, i + 1, Map.empty, Map(ab -> r))
        }.toIndexedSeq),
      )
      val (line, _) = RollbackPropagation.checkedFixpoint(ckpts)
      line(b).lastReceived.getOrElse(ab, 0L) <= line(a).lastSent.getOrElse(ab, 0L)
    }
}
