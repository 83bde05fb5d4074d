package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import scala.collection.mutable

/** SHA-256 fingerprints of simulated results, for bit-identity checks. */
object Fingerprint {
  def sha256(s: String): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(s.getBytes(UTF_8))
      .map(b => f"${b & 0xff}%02x").mkString

  /** Order-independent: entries are sorted by their text. */
  def digest(d: Map[Any, Long]): String =
    sha256(d.iterator.map { case (k, v) => s"$k=$v" }.toArray.sorted.mkString("\n"))
}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`,
  * plus `--smoke` (fivefold smaller parallelism) and `--out <dir>` (where
  * a traced run writes its spans).
  */
final case class Opts(workload: String = "", seed: Long = 7L, seconds: Double = 10.0,
    trace: Boolean = false, smoke: Boolean = false, out: Option[String] = None)

object Opts {
  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest    => parse(rest, o.copy(trace = v == "1"))
    case "--smoke" :: rest         => parse(rest, o.copy(smoke = true))
    case "--out" :: v :: rest      => parse(rest, o.copy(out = Some(v)))
    case Nil                       => o
    case other                     => sys.error(s"bad arguments: ${other.mkString(" ")}")
  }
}

/** Runs one workload for the measured time and prints its metrics; the
  * last line of standard output is the JSON result.
  */
object Main {
  /** Untimed repetitions first let the JIT compile the hot paths. */
  val WarmupSeconds = 5.0
  val MinUnits = 3

  val PerLayer: Seq[(String, String)] = Seq(
    "nexmark.gen_s" -> "s", "nexmark.events" -> "count",
    "dataflow.build_s" -> "s", "dataflow.self_s" -> "s", "dataflow.alloc_mb" -> "MB",
    "dataflow.records" -> "count", "dataflow.max_inbox" -> "count",
    "checkpoint.msg_s" -> "s", "checkpoint.msg_calls" -> "count",
    "checkpoint.trigger_s" -> "s", "checkpoint.plan_s" -> "s", "checkpoint.plan_ckpts" -> "count",
    "checkpoint.ckpts" -> "count", "checkpoint.forced" -> "count",
    "checkpoint.invalid" -> "count", "checkpoint.useful_ratio" -> "1",
    "checkpoint.log_msgs" -> "count", "checkpoint.log_mb" -> "MB",
    "checkpoint.replayed" -> "count", "checkpoint.dedup_dropped" -> "count",
  ) ++ Workloads.Roles.flatMap(r =>
    Seq(s"queries.record_s.$r" -> "s", s"queries.records.$r" -> "count")
  ) ++ Seq(
    "queries.snapshot_s" -> "s", "queries.snapshots" -> "count", "queries.restore_s" -> "s",
    "core.freeze_s" -> "s", "core.probes" -> "count",
    "jvm.gc_s" -> "s", "jvm.alloc_mb" -> "MB",
    "trace.wall_s" -> "s", "trace.overhead_pct" -> "%",
  )

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args.toList)
    val w = Workloads.all(o.smoke).find(_.name == o.workload).getOrElse(
      sys.error(s"unknown workload '${o.workload}'; one of " +
        Workloads.all(o.smoke).map(_.name).mkString(", ")))
    val seeds = Seeds(o.seed)
    val rt = java.lang.Runtime.getRuntime
    println(s"workload ${w.name}: ${w.describe}")
    println(s"seeds: nexmark ${seeds.nexmark}, simulator ${seeds.sim}; " +
      s"environment: nproc ${rt.availableProcessors}, java ${System.getProperty("java.version")}, " +
      s"max heap ${rt.maxMemory >> 20} MiB")

    var attempted, failed = 0
    var reference: Option[UnitOutcome] = None
    val untraced, traced = mutable.ArrayBuffer.empty[UnitOutcome]
    val tracers = mutable.ArrayBuffer.empty[Tracer]

    /** Run one unit, check it against the gate and against the run's first
      * unit: the same result on every unit shows determinism, and on traced
      * units that the decorators are transparent. (Every cell's digest is
      * checked against the reference, so digests agree too.)
      */
    def runUnit(withTrace: Boolean, measured: Boolean): Unit = {
      attempted += 1
      val tracer = Option.when(withTrace)(new Tracer)
      val label = s"unit $attempted${if (withTrace) " traced" else ""}${if (measured) "" else " warm-up"}"
      try {
        val u = w.unit(seeds, tracer, fingerprint = reference.isEmpty)
        val ref = reference.getOrElse { reference = Some(u); u }
        val problems = u.failures ++
          Option.when(u.result != ref.result)("result differs from the run's first unit")
        if (problems.nonEmpty) failed += 1
        println(f"$label: wall ${u.wallNs / 1e9}%.4f s, setup ${u.setupNs / 1e9}%.4f s, " +
          f"records ${u.records}, live heap ${u.retainedBytes / 1e6}%.1f MB: " +
          (if (problems.isEmpty) "ok" else problems.mkString("FAILED: ", "; ", "")))
        if (measured) {
          if (withTrace) { traced += u; tracers ++= tracer } else untraced += u
        }
      } catch {
        case e: Exception =>
          failed += 1
          println(s"$label: FAILED: $e")
      }
    }

    def loop(seconds: Double, measured: Boolean): Unit = {
      val start = Clock.nanos()
      var i = 0
      def count = if (o.trace) traced.size else untraced.size
      while ((Clock.nanos() - start) / 1e9 < seconds || (measured && count < MinUnits) ||
          (!measured && i < (if (o.trace) 2 else 1))) {
        runUnit(withTrace = o.trace && i % 2 == 1, measured)
        i += 1
      }
    }
    loop(WarmupSeconds, measured = false)
    loop(o.seconds, measured = true)

    reference.foreach { ref =>
      val problems = w.runCheck(seeds, ref)
      problems.foreach(p => println(s"run check FAILED: $p"))
      if (problems.nonEmpty) failed = attempted
      println(s"fingerprint: result sha256 ${Fingerprint.sha256(ref.result)}" +
        (if (ref.digest.nonEmpty) s", sink digest sha256 ${ref.digest}" else "") +
        s"; result ${ref.result}")
    }

    def med(us: Seq[UnitOutcome])(f: UnitOutcome => Double) = median(us.map(f))
    val metrics: Seq[(String, String, Double)] =
      if (!o.trace) {
        val m = med(untraced.toSeq) _
        Seq(
          ("wall_s", "s", m(_.wallNs / 1e9)),
          ("setup_s", "s", m(_.setupNs / 1e9)),
          ("records_per_s", "1/s", m(u => u.records / ((u.wallNs - u.setupNs) / 1e9))),
          ("retained_mb", "MB", m(_.retainedBytes / 1e6)),
        )
      } else {
        val tracedWall = med(traced.toSeq)(_.wallNs / 1e9)
        val extra = Map(
          "trace.wall_s" -> tracedWall,
          "trace.overhead_pct" -> 100.0 * (tracedWall / med(untraced.toSeq)(_.wallNs / 1e9) - 1.0))
        PerLayer.map { case (name, unit) =>
          (name, unit, extra.getOrElse(name, med(traced.toSeq)(_.layers.getOrElse(name, 0.0))))
        }
      }
    val samples = if (o.trace) traced.size else untraced.size
    metrics.foreach { case (n, u, v) => println(f"$n%-28s $v%16.6f $u (median of $samples units)") }
    println(f"failed_ratio ${if (attempted == 0) 1.0 else failed.toDouble / attempted}%.4f 1 " +
      s"($failed of $attempted units failed)")
    o.out.filter(_ => o.trace).foreach(dir => writeTrace(dir, w.name, o.seed, tracers.toSeq))

    val json = metrics.map { case (n, u, v) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": $attempted, """ +
      s""""failed": $failed, "metrics": {${json.mkString(", ")}}}""")
  }

  /** JSON number. A run without samples has failed; it reads 0. */
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)

  /** Spans and counters of the measured traced units, one JSON file. */
  private def writeTrace(dir: String, workload: String, seed: Long, ts: Seq[Tracer]): Unit = {
    val units = ts.map { t =>
      val t0 = t.spans.map(_.startNs).minOption.getOrElse(0L)
      val spans = t.spans.sortBy(_.id).map(s =>
        s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, """ +
          s""""start_ns": ${s.startNs - t0}, "end_ns": ${s.endNs - t0}}""")
      val counters = t.aggs.values.map(a =>
        s"""{"name": "${a.name}", "calls": ${a.calls}, "total_ns": ${a.totalNs}, """ +
          s""""self_ns": ${a.selfNs}, "self_alloc_bytes": ${a.selfAlloc}}""")
      s"""{"spans": [${spans.mkString(",\n")}],\n"counters": [${counters.mkString(",\n")}]}"""
    }
    val path = Paths.get(dir, s"trace-$workload-seed$seed.json")
    Files.createDirectories(path.getParent)
    Files.write(path, s"""{"workload": "$workload", "seed": $seed, "units": [\n${units.mkString(",\n")}]}\n""".getBytes(UTF_8))
    println(s"trace written to $path")
  }
}
