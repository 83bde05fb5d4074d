package perfbench

import repro.checkpoint._
import repro.dataflow._
import repro.nexmark.NexmarkConfig
import repro.queries.{MultisetSink, QueryDef, UpsertMaxSink}
import scala.collection.mutable

/** Host time and this thread's allocation counter. */
object Clock {
  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  def nanos(): Long     = System.nanoTime()
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes
}

/** Per-name totals of the spans of one unit. Self time and self allocation
  * are the span's own minus what its child spans cover.
  */
final class Agg(val name: String) {
  var calls = 0L
  var totalNs = 0L
  var selfNs = 0L
  var selfAlloc = 0L
}

/** A stored span. `parent` is the id of the enclosing stored span, -1 at top. */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long)

/** Nested spans on the single simulation thread. Every span is added to its
  * name's [[Agg]]; spans opened with `keep` are also stored one by one
  * (per-record and per-message hooks are only aggregated).
  */
final class Tracer {
  val aggs = mutable.LinkedHashMap.empty[String, Agg]
  val spans = mutable.ArrayBuffer.empty[Span]
  def agg(name: String): Agg = aggs.getOrElseUpdate(name, new Agg(name))

  private val MaxDepth = 256
  private var depth = 0
  private val openAgg = new Array[Agg](MaxDepth)
  private val openNs = new Array[Long](MaxDepth)
  private val openAlloc = new Array[Long](MaxDepth)
  private val childNs = new Array[Long](MaxDepth)
  private val childAlloc = new Array[Long](MaxDepth)
  private val openKept = new Array[Int](MaxDepth) // stored span id, or -1

  def enter(a: Agg, keep: Boolean = false): Unit = {
    val d = depth
    openAgg(d) = a
    childNs(d) = 0L
    childAlloc(d) = 0L
    openKept(d) = if (keep) spans.length else -1
    depth = d + 1
    openAlloc(d) = Clock.allocated()
    openNs(d) = Clock.nanos()
  }

  def exit(): Unit = {
    val end = Clock.nanos()
    val alloc = Clock.allocated()
    depth -= 1
    val d = depth
    val a = openAgg(d)
    val dur = end - openNs(d)
    val al = alloc - openAlloc(d)
    a.calls += 1
    a.totalNs += dur
    a.selfNs += dur - childNs(d)
    a.selfAlloc += al - childAlloc(d)
    if (d > 0) { childNs(d - 1) += dur; childAlloc(d - 1) += al }
    if (openKept(d) >= 0) spans += Span(openKept(d), a.name, parentOf(d), openNs(d), end)
  }

  /** Store a span measured outside [[enter]]/[[exit]] under the innermost
    * kept span that is open now.
    */
  def record(name: String, startNs: Long, endNs: Long): Unit =
    spans += Span(spans.length, name, parentOf(depth), startNs, endNs)

  private def parentOf(d: Int): Int = {
    var i = d - 1
    while (i >= 0 && openKept(i) < 0) i -= 1
    if (i < 0) -1 else openKept(i)
  }

  def span[T](a: Agg, keep: Boolean = false)(body: => T): T = {
    enter(a, keep)
    try body finally exit()
  }
}

/** Delegating [[QueryDef]] that clocks set-up from outside the program.
  *
  * Set-up of one simulator run lasts from the `graph` call to the last
  * operator-logic factory call, which the `Runtime` constructor makes for
  * its instances. With a tracer it also wraps every operator's logic in
  * [[TracedLogic]] and stores `graph` and `input` as spans. `inputSeed`
  * replaces the generator seed, for callers (`Mst.find`) that fix it.
  */
final class BenchQuery(inner: QueryDef, inputSeed: Option[Long], tracer: Option[Tracer])
    extends QueryDef {
  def name: String = inner.name
  def includes: Set[String] = inner.includes

  /** Set-up time summed over runs, and its parts. */
  var setupNs, genNs, graphNs, ctorNs = 0L
  /** `input` calls (simulator runs) and the events they generated. */
  var probes = 0
  var events = 0L
  /** Role of each operator: "src", "sink" or "inner" (all others). */
  val roles = mutable.LinkedHashMap.empty[String, String]

  private var graphStart = Long.MaxValue
  private var inputEnd = 0L
  private var lastLogic = 0L

  private val graphAgg = tracer.map(_.agg("dataflow.graph"))
  private val genAgg = tracer.map(_.agg("nexmark.gen"))

  def graph(parallelism: Int): Graph = {
    finish()
    graphStart = Clock.nanos()
    graphAgg.foreach(tracer.get.enter(_, keep = true))
    val g = inner.graph(parallelism)
    val ops = g.ops.map { o =>
      roles(o.name) = if (o.isSource) "src" else if (o.isSink) "sink" else "inner"
      val make: () => OperatorLogic = tracer match {
        case Some(t) =>
          val rec = t.agg(s"queries.record.${o.name}")
          () => new TracedLogic(o.logic(), rec, t)
        case None => o.logic
      }
      o.copy(logic = () => { val l = make(); lastLogic = Clock.nanos(); l })
    }
    val out = g.copy(ops = ops)
    tracer.foreach(_.exit())
    graphNs += Clock.nanos() - graphStart
    out
  }

  def input(parallelism: Int, cfg: NexmarkConfig): SourceInput = {
    val start = Clock.nanos()
    genAgg.foreach(tracer.get.enter(_, keep = true))
    val in = inner.input(parallelism, inputSeed.fold(cfg)(s => cfg.copy(seed = s)))
    tracer.foreach(_.exit())
    inputEnd = Clock.nanos()
    genNs += inputEnd - start
    probes += 1
    events += in.totalEvents
    in
  }

  /** Close the set-up of the last run, if its runtime was constructed.
    * A `graph` call that no run follows (`Mst.analyticCap`) adds nothing.
    */
  def finish(): Unit = if (lastLogic > graphStart) {
    setupNs += lastLogic - graphStart
    ctorNs += lastLogic - inputEnd
    tracer.foreach(_.record("dataflow.ctor", inputEnd, lastLogic))
    graphStart = Long.MaxValue
  }

  def sinkDigest(rt: Runtime): Map[Any, Long] =
    if (tracer.isEmpty) inner.sinkDigest(rt) else TracedLogic.sinkDigest(rt)
}

/** Delegating [[OperatorLogic]]: one aggregated span per call. Hot hooks
  * here and below call `enter`/`exit` directly, because a by-name block
  * would allocate a closure per call and count it as the caller's.
  */
final class TracedLogic(val inner: OperatorLogic, recordAgg: Agg, t: Tracer)
    extends OperatorLogic {
  private val snapshotAgg = t.agg("queries.snapshot")
  private val restoreAgg = t.agg("queries.restore")
  private val sizeAgg = t.agg("queries.size")

  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = {
    t.enter(recordAgg)
    try inner.onRecord(value, fromOp, emit) finally t.exit()
  }
  def snapshot(): Any = {
    t.enter(snapshotAgg)
    try inner.snapshot() finally t.exit()
  }
  def restore(s: Any): Unit = {
    t.enter(restoreAgg)
    try inner.restore(s) finally t.exit()
  }
  def stateBytes: Long = {
    t.enter(sizeAgg)
    try inner.stateBytes finally t.exit()
  }
}

object TracedLogic {
  /** The merged sink answer of a traced run. `QueryDef.sinkDigest` casts
    * sink logic to the concrete sink classes, so this merges the wrapped
    * sinks the same way: multisets add up, upserts keep the maximum.
    */
  def sinkDigest(rt: Runtime): Map[Any, Long] = {
    val m = mutable.Map.empty[Any, Long]
    rt.allInstances.filter(_.spec.isSink).foreach { inst =>
      inst.logic.asInstanceOf[TracedLogic].inner match {
        case s: MultisetSink =>
          s.counts.foreach { case (k, v) => m.updateWith(k)(c => Some(c.getOrElse(0L) + v)) }
        case s: UpsertMaxSink =>
          s.latest.foreach { case (k, v) =>
            m.updateWith(k)(c => Some(math.max(c.getOrElse(Long.MinValue), v)))
          }
        case other => sys.error(s"no digest for sink ${other.getClass.getName}")
      }
    }
    m.toMap
  }
}

/** Delegating [[Protocol]]. Message hooks (`piggybackFor`, `beforeApply`)
  * aggregate into `checkpoint.msg`, the triggering hooks into
  * `checkpoint.trigger`, and `plan` is stored as a span. The wrapped
  * protocol sees the runtime through [[TracedRuntime]], so engine work it
  * asks for (checkpoints, markers, timers) counts as `dataflow`.
  */
final class TracedProtocol(inner: Protocol, t: Tracer) extends Protocol {
  private val msgAgg = t.agg("checkpoint.msg")
  private val triggerAgg = t.agg("checkpoint.trigger")
  private val planAgg = t.agg("checkpoint.plan")

  def name: String = inner.name
  def features: ProtocolFeatures = inner.features
  def logsMessages: Boolean = inner.logsMessages
  def supportsCycles: Boolean = inner.supportsCycles

  def init(rt: ProtocolRuntime): Unit = t.span(triggerAgg)(inner.init(new TracedRuntime(rt, t)))
  def onStart(): Unit = t.span(triggerAgg)(inner.onStart())
  def onTimer(tag: String, inst: Option[InstanceId], payload: Long, now: Long): Unit = {
    t.enter(triggerAgg)
    try inner.onTimer(tag, inst, payload, now) finally t.exit()
  }
  def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[Piggyback] = {
    t.enter(msgAgg)
    try inner.piggybackFor(sender, channel, now) finally t.exit()
  }
  def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean = {
    t.enter(msgAgg)
    try inner.beforeApply(inst, msg, now) finally t.exit()
  }
  def onMarker(inst: Instance, channel: ChannelId, round: Int, now: Long): Unit = {
    t.enter(triggerAgg)
    try inner.onMarker(inst, channel, round, now) finally t.exit()
  }
  def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit = {
    t.enter(triggerAgg)
    try inner.onCheckpoint(inst, meta, now) finally t.exit()
  }
  def onDurable(meta: CkptMeta, now: Long): Unit = {
    t.enter(triggerAgg)
    try inner.onDurable(meta, now) finally t.exit()
  }
  override def ckptExtraBytes(inst: Instance): Long = {
    t.enter(triggerAgg)
    try inner.ckptExtraBytes(inst) finally t.exit()
  }
  def afterResume(now: Long): Unit = t.span(triggerAgg)(inner.afterResume(now))
  def plan(failTime: Long): RecoveryPlan = t.span(planAgg, keep = true)(inner.plan(failTime))
}

/** Delegating [[ProtocolRuntime]]: engine work a protocol asks for is
  * aggregated as `dataflow.callback`.
  */
final class TracedRuntime(rt: ProtocolRuntime, t: Tracer) extends ProtocolRuntime {
  private val callbackAgg = t.agg("dataflow.callback")

  def graph: Graph = rt.graph
  def cfg: SimConfig = rt.cfg
  def store: StateStore = rt.store
  def log: MessageLog = rt.log
  def metrics: repro.metrics.MetricsCollector = rt.metrics
  def instance(id: InstanceId): Instance = rt.instance(id)
  def now: Long = rt.now
  def endMicros: Long = rt.endMicros
  def addProtocolBytes(bytes: Long): Unit = rt.addProtocolBytes(bytes)

  def scheduleTimer(time: Long, tag: String, inst: Option[InstanceId], payload: Long): Unit = {
    t.enter(callbackAgg)
    try rt.scheduleTimer(time, tag, inst, payload) finally t.exit()
  }
  def requestCheckpoint(id: InstanceId, kind: CkptKind): Unit = {
    t.enter(callbackAgg)
    try rt.requestCheckpoint(id, kind) finally t.exit()
  }
  def checkpointNow(id: InstanceId, kind: CkptKind): CkptMeta = {
    t.enter(callbackAgg)
    try rt.checkpointNow(id, kind) finally t.exit()
  }
  def sendMarkers(id: InstanceId, round: Int): Unit = {
    t.enter(callbackAgg)
    try rt.sendMarkers(id, round) finally t.exit()
  }
}
