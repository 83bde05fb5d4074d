package repro.checkpoint

import repro.dataflow.InstanceId

/** Algorithm 1 of the paper (Wang et al.'s rollback propagation), kept in
  * test scope as the oracle of `Recovery.maxConsistentLine`:
  * starting from the latest checkpoint of every instance (the root set),
  * repeatedly replace any root-set checkpoint that is strictly reachable
  * from another root-set checkpoint by the next-older checkpoint of the
  * same instance, until no root-set member is reachable from another.
  * The final root set is the most recent consistent recovery line.
  */
object RollbackPropagation {

  /** @return (recovery line, number of checkpoints rolled past per instance) */
  def recoveryLine(g: CheckpointGraph): (Map[InstanceId, CkptMeta], Map[InstanceId, Int]) = {
    // Current root-set position per instance (start at the latest).
    val pos = scala.collection.mutable.Map.from(g.ckpts.map { case (id, ms) => id -> (ms.length - 1) })
    require(g.ckpts.values.forall(_.nonEmpty), "every instance needs at least its initial checkpoint")

    var changed = true
    while (changed) {
      changed = false
      val root = pos.map { case (id, p) => g.Node(id, p) }.toSet
      // Union of everything strictly reachable from any root member.
      val reach = root.iterator.map(g.strictlyReachable).foldLeft(Set.empty[g.Node])(_ ++ _)
      val marked = root.filter(reach.contains)
      if (marked.nonEmpty) {
        marked.foreach { n =>
          require(n.pos > 0,
            s"rollback propagation fell past the initial checkpoint of ${n.id} — " +
              "initial checkpoints must form a consistent line")
          pos(n.id) = n.pos - 1
        }
        changed = true
      }
    }

    val line = pos.map { case (id, p) => id -> g.ckpts(id)(p) }.toMap
    val rolledPast = pos.map { case (id, p) => id -> (g.ckpts(id).length - 1 - p) }.toMap
    require(g.isConsistent(line), "rollback propagation returned an inconsistent line")
    (line, rolledPast)
  }

  /** The main-path line, after checking that it equals Algorithm 1's. */
  def checkedFixpoint(ckpts: Map[InstanceId, IndexedSeq[CkptMeta]])
      : (Map[InstanceId, CkptMeta], Map[InstanceId, Int]) = {
    val fix = Recovery.maxConsistentLine(ckpts)
    val oracle = recoveryLine(new CheckpointGraph(ckpts))
    if (fix != oracle) {
      def idx(r: (Map[InstanceId, CkptMeta], Map[InstanceId, Int])) = r._1.view.mapValues(_.idx).toMap
      sys.error(s"orphan fixpoint ${idx(fix)} differs from Algorithm 1 ${idx(oracle)}")
    }
    fix
  }
}
