package perfbench

import repro.checkpoint.{ForcedCkpt, InitialCkpt}
import repro.core.{ExpConfig, ExpResult, Experiment, Mst}
import repro.dataflow.{Runtime, SimConfig}
import repro.nexmark.{NexmarkConfig, NexmarkGen, NxEvent}
import repro.queries._

/** Generator and simulator seeds of a run. `--seed n` gives NexMark seed n
  * and simulator seed n + 35, so the default 7 is the tables' pair (7, 42).
  */
final case class Seeds(nexmark: Long, sim: Long)
object Seeds {
  def apply(seed: Long): Seeds = Seeds(seed, seed + 35L)
}

/** One unit of work: its host cost, its correctness verdict and, for a
  * traced unit, its per-layer metrics.
  *
  * @param records  simulated work: `processedRecords` of a cell, the
  *                 offered source events of an MST search
  * @param result   canonical text of the simulated result (an `ExpResult`
  *                 without `cfg`, or the MST value), equal on every unit
  *                 of a run
  * @param digest   fingerprint of the cell's sink digest, if asked for
  */
final case class UnitOutcome(
    wallNs: Long,
    setupNs: Long,
    records: Long,
    retainedBytes: Long,
    result: String,
    digest: String,
    failures: Seq[String],
    layers: Map[String, Double],
)

/** A benchmark workload: a unit of work the run repeats. */
sealed trait Workload {
  def name: String
  def describe: String
  def unit(seeds: Seeds, tracer: Option[Tracer], fingerprint: Boolean): UnitOutcome
  /** Checks that need one extra simulator run; made once per run. */
  def runCheck(seeds: Seeds, first: UnitOutcome): Seq[String] = Nil
}

object Workloads {
  /** Cells run at this share of `Mst.analyticCap`, below their MST. */
  val RateShare = 0.6
  /** Virtual schedule of a cell: input over the first 8 s, one global
    * failure at 6 s, and a run to 14 s so the recovered run drains.
    */
  val WarmupMicros = 2_000_000L
  val RunMicros = 12_000_000L
  val FailAfterWarmupMicros = 4_000_000L
  val InputMicros = 8_000_000L

  /** Operator roles that per-operator metrics are summed by. Every query
    * has all three, so no workload reports a role it lacks.
    */
  val Roles: Seq[String] = Seq("src", "inner", "sink")

  /** The workloads; `smoke` shrinks parallelism fivefold for a self-test. */
  def all(smoke: Boolean): Seq[Workload] = {
    def w(n: Int) = if (smoke) n / 5 else n
    Seq(
      Cell("q12-coor-w50", Q12(), "COOR", w(50), SparkRefs.q12Expected),
      Cell("q1-unc-w50", Q1, "UNC", w(50), SparkRefs.q1Expected),
      Cell("q3-cic-w50", Q3, "CIC", w(50), SparkRefs.q3Expected),
      MstSearch("mst-q12-coor-w10", Q12(), "COOR", w(10)),
    )
  }

  private val gcBeans = java.lang.management.ManagementFactory.getGarbageCollectorMXBeans
  def gcMillis(): Long = {
    var ms = 0L
    gcBeans.forEach(b => ms += math.max(0L, b.getCollectionTime))
    ms
  }

  /** Live heap after a full collection, as the collector reports it per
    * pool (heap usage read afterwards would count this thread's new TLAB).
    */
  def liveHeapBytes(): Long = {
    System.gc()
    var used = 0L
    java.lang.management.ManagementFactory.getMemoryPoolMXBeans.forEach { p =>
      if (p.getType == java.lang.management.MemoryType.HEAP && p.getCollectionUsage != null)
        used += p.getCollectionUsage.getUsed
    }
    used
  }

  /** Cost of a unit seen by the JVM: time, GC time and allocation. */
  final class Meter {
    private val gc0 = gcMillis()
    private val alloc0 = Clock.allocated()
    private val t0 = Clock.nanos()
    def stop(): (Long, Double, Double) =
      (Clock.nanos() - t0, (gcMillis() - gc0) / 1e3, (Clock.allocated() - alloc0) / 1e6)
  }

  private[perfbench] def layerMetric(t: Tracer, name: String, f: Agg => Long): Long =
    t.aggs.get(name).fold(0L)(f)

  /** Metrics every traced unit reports, from the tracer and the query. */
  def commonLayers(t: Tracer, q: BenchQuery, gcS: Double, allocMb: Double): Map[String, Double] = {
    def self(n: String) = layerMetric(t, n, _.selfNs) / 1e9
    def calls(n: String) = layerMetric(t, n, _.calls).toDouble
    def byRole(role: String, f: String => Double) =
      q.roles.collect { case (op, r) if r == role => f(s"queries.record.$op") }.sum
    val perRole = Roles.flatMap { r =>
      Seq(s"queries.record_s.$r" -> byRole(r, self), s"queries.records.$r" -> byRole(r, calls))
    }
    perRole.toMap ++ Map(
      "nexmark.gen_s" -> q.genNs / 1e9,
      "nexmark.events" -> q.events.toDouble,
      "dataflow.build_s" -> (q.graphNs + q.ctorNs) / 1e9,
      "dataflow.records" -> (byRole("src", calls) + byRole("inner", calls)),
      "checkpoint.msg_s" -> self("checkpoint.msg"),
      "checkpoint.msg_calls" -> calls("checkpoint.msg"),
      "checkpoint.trigger_s" -> self("checkpoint.trigger"),
      "checkpoint.plan_s" -> layerMetric(t, "checkpoint.plan", _.totalNs) / 1e9,
      "queries.snapshot_s" -> (self("queries.snapshot") + self("queries.size")),
      "queries.snapshots" -> calls("queries.snapshot"),
      "queries.restore_s" -> self("queries.restore"),
      "core.freeze_s" -> layerMetric(t, "core.freeze", _.totalNs) / 1e9,
      "core.probes" -> q.probes.toDouble,
      "jvm.gc_s" -> gcS,
      "jvm.alloc_mb" -> allocMb,
    )
  }
}

import Workloads._

/** A fixed-rate NexMark cell with one global failure, run through
  * `Experiment.run`. The traced variant builds the same run from the same
  * public parts, with [[TracedProtocol]] in place of the protocol.
  */
final case class Cell(name: String, query: QueryDef, proto: String, workers: Int,
    expected: Seq[NxEvent] => Map[Any, Long]) extends Workload {
  val rate: Double = RateShare * Mst.analyticCap(query, workers)

  def describe: String =
    f"${query.name} under $proto, $workers workers, $rate%.0f ev/s for ${InputMicros / 1e6}%.0f s " +
      f"of input, failure at ${(WarmupMicros + FailAfterWarmupMicros) / 1e6}%.0f s, " +
      f"${(WarmupMicros + RunMicros) / 1e6}%.0f s virtual"

  def config(q: QueryDef, seeds: Seeds): ExpConfig = ExpConfig(q, proto, workers, rate,
    sim = SimConfig(warmupMicros = WarmupMicros, runMicros = RunMicros,
      failAtMicros = Some(FailAfterWarmupMicros), seed = seeds.sim),
    inputHorizonMicros = Some(InputMicros), seed = seeds.nexmark)

  def unit(seeds: Seeds, tracer: Option[Tracer], fingerprint: Boolean): UnitOutcome = {
    val q = new BenchQuery(query, None, tracer)
    val cfg = config(q, seeds)
    val meter = new Meter
    val (rt, res) = tracer match {
      case None    => Experiment.run(cfg)
      case Some(t) => t.span(t.agg("core.unit"), keep = true)(tracedRun(cfg, q, t))
    }
    val (wallNs, gcS, allocMb) = meter.stop()
    q.finish()
    // The runtime is still reachable here, so its heap counts.
    val retained = liveHeapBytes()
    val digest = q.sinkDigest(rt)
    val want = expected(NexmarkGen.events(
      NexmarkConfig(rate, InputMicros, seed = seeds.nexmark, include = query.includes)))
    val failures = Seq(
      Option.when(res.unconsumed != 0)(s"${res.unconsumed} source events unconsumed"),
      Option.when(rt.queuedMessagesAtEnd != 0)(s"${rt.queuedMessagesAtEnd} messages queued at end"),
      Option.when(res.eoViolations != 0)(s"${res.eoViolations} exactly-once violations"),
      Option.when(digest != want)(
        s"sink digest differs from the reference (${digest.size} vs ${want.size} groups)"),
    ).flatten
    val layers = tracer.fold(Map.empty[String, Double])(t =>
      commonLayers(t, q, gcS, allocMb) ++ cellLayers(t, rt, res))
    UnitOutcome(wallNs, q.setupNs, rt.metrics.processedRecords, retained,
      res.productIterator.drop(1).mkString(","),
      if (fingerprint) Fingerprint.digest(digest) else "", failures, layers)
  }

  /** `Experiment.run`, step by step, with a traced protocol. `freeze` gets
    * the unwrapped protocol, which it matches on.
    */
  private def tracedRun(cfg: ExpConfig, q: BenchQuery, t: Tracer): (Runtime, ExpResult) = {
    val protocol = Experiment.protocolFor(cfg.protocolName)
    val graph = q.graph(cfg.parallelism)
    val input = q.input(cfg.parallelism, NexmarkConfig(cfg.ratePerSec, InputMicros,
      hotRatio = cfg.hotRatio, seed = cfg.seed, include = q.includes))
    val rt = new Runtime(graph, new TracedProtocol(protocol, t), cfg.sim, input)
    q.finish()
    t.span(t.agg("dataflow.run"), keep = true)(rt.run())
    (rt, t.span(t.agg("core.freeze"), keep = true)(Experiment.freeze(cfg, rt, protocol)))
  }

  private def cellLayers(t: Tracer, rt: Runtime, res: ExpResult): Map[String, Double] = {
    val dataflow = Seq("dataflow.run", "dataflow.callback")
    val metas = rt.store.allMetas.filter(_.kind != InitialCkpt)
    val counted = metas.count(_.counted)
    Map(
      "dataflow.self_s" -> dataflow.map(layerMetric(t, _, _.selfNs)).sum / 1e9,
      "dataflow.alloc_mb" -> dataflow.map(layerMetric(t, _, _.selfAlloc)).sum / 1e6,
      "dataflow.max_inbox" -> res.maxQueue.toDouble,
      "checkpoint.plan_ckpts" -> rt.metrics.failureAt.fold(0)(f =>
        rt.graph.instances.map(rt.store.durable(_, f).size).sum).toDouble,
      "checkpoint.ckpts" -> metas.size.toDouble,
      "checkpoint.forced" -> metas.count(_.kind == ForcedCkpt).toDouble,
      "checkpoint.invalid" -> res.invalidCounted.toDouble,
      "checkpoint.useful_ratio" ->
        (if (counted == 0) 1.0 else 1.0 - res.invalidCounted.toDouble / counted),
      "checkpoint.log_msgs" -> rt.log.totalMessages.toDouble,
      "checkpoint.log_mb" -> rt.log.totalBytes / 1e6,
      "checkpoint.replayed" -> res.replayedMessages.toDouble,
      "checkpoint.dedup_dropped" -> res.dedupDropped.toDouble,
    )
  }
}

/** One fresh `Mst.find`: a bisection of failure-free probe runs, some of
  * them above the sustainable rate. The protocol is built inside
  * `Experiment.run`, so a traced search cannot separate the checkpoint
  * layer or `freeze`; their time stays in `dataflow.self_s`.
  */
final case class MstSearch(name: String, query: QueryDef, proto: String, workers: Int)
    extends Workload {
  def describe: String = s"Mst.find(${query.name}, $proto, $workers) from an empty memo"

  /** `Mst.find` memoises per JVM; every unit searches afresh. */
  private def clearMemo(): Unit = {
    val f = Mst.getClass.getDeclaredField("cache")
    f.setAccessible(true)
    f.get(Mst).asInstanceOf[scala.collection.mutable.Map[_, _]].clear()
  }

  def unit(seeds: Seeds, tracer: Option[Tracer], fingerprint: Boolean): UnitOutcome = {
    clearMemo()
    val q = new BenchQuery(query, Some(seeds.nexmark), tracer)
    val meter = new Meter
    val mst = tracer match {
      case None => try Mst.find(q, proto, workers) finally q.finish()
      case Some(t) =>
        t.span(t.agg("core.mst"), keep = true) {
          try Mst.find(q, proto, workers) finally q.finish()
        }
    }
    val (wallNs, gcS, allocMb) = meter.stop()
    val cap = 1.3 * Mst.analyticCap(query, workers)
    val failures = Seq(
      Option.when(!(mst > 0 && mst <= cap))(s"MST $mst outside (0, $cap]"),
    ).flatten
    val layers = tracer.fold(Map.empty[String, Double]) { t =>
      val find = t.aggs("core.mst")
      commonLayers(t, q, gcS, allocMb) ++ Map(
        // Everything in Mst.find outside the traced spans, less the
        // runtime constructors (counted in dataflow.build_s).
        "dataflow.self_s" -> (find.selfNs - q.ctorNs) / 1e9,
        "dataflow.alloc_mb" -> find.selfAlloc / 1e6,
      )
    }
    UnitOutcome(wallNs, q.setupNs, q.events, liveHeapBytes(),
      java.lang.Double.toString(mst), "", failures, layers)
  }

  /** The value found must itself be a sustainable rate. */
  override def runCheck(seeds: Seeds, first: UnitOutcome): Seq[String] = {
    val mst = first.result.toDouble
    val q = new BenchQuery(query, Some(seeds.nexmark), None)
    if (Mst.stable(q, proto, workers, mst, 0.0)) Nil
    else Seq(s"MST $mst is not sustainable on a re-check")
  }
}
