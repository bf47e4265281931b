"""Passes, metrics and output for one benchmark run.

A *pass* is one setup, one timed phase and one end of run, on fresh
state built from the seed. Every pass of a seed is the same simulation,
so the simulated metrics must repeat exactly. The runner checks that
whenever a run makes more than one pass: always with ``--trace 1``, and
with ``--trace 0`` only when a second pass fits the time budget.

Both modes start with at least five setups (4 s of them at least):
they warm the process up and give ``setup_s`` a median.

* ``--trace 0``: passes until the next one would overrun ``--seconds``
  (at least one). Host samples are pooled across passes, and every
  host time is scaled to nominal machine speed by the speed-kernel
  samples taken through the run (:mod:`perfbench.speed`).
* ``--trace 1``: one untraced pass, then one traced pass of the same
  seed. Host percentiles and the per-tenth series come from the
  untraced pass; span totals from the traced one.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time, thread_time
from types import SimpleNamespace

import numpy

from repro.mediums.medium import MEDIUM_NONE
from repro.sim.distributions import percentile

from perfbench import tracer as tracing
from perfbench.speed import Speed
from perfbench.workloads import (
    Oltp, Recorder, Tenants, Vdi, host_time, stored_facts,
)

WORKLOADS = {workload.name: workload for workload in (Oltp(), Vdi(), Tenants())}
#: Fewest set-ups per run before the passes. They continue until they
#: add up to ``SETUP_SECONDS`` of host time, so a 0.1 s set-up (``vdi``)
#: gets a median over a few seconds rather than a fraction of one.
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0
#: Speed-kernel samples right before and right after each of them. Host
#: speed moves within a second: the set-ups of the passes of one run,
#: all the same work, ranged over 1.5x.
SETUP_SAMPLES = 5


# ----------------------------------------------------------------------
# Environment stamp (recorded, never used to scale a metric)


def _git_commit(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def _source_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root, args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# One pass


def _flash_bytes(drives):
    return sum(drive.ftl.flash_bytes_written for drive in drives)


def _controller_counters(arrays):
    """Counters that live in controller memory (reset by recovery)."""
    totals = {"hits": 0, "misses": 0, "evictions": 0, "reconstructs": 0}
    for array in arrays:
        cache = array.datapath._cblock_cache.counters()
        for key in ("hits", "misses", "evictions"):
            totals[key] += cache[key]
        totals["reconstructs"] += array.segreader.reconstructed_reads
    return totals


def _other_cpu():
    """CPU seconds used so far outside this thread: other threads of the
    process, and child processes that have been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (process_time() - thread_time()
            + children.ru_utime + children.ru_stime)


def _chain_depth(medium_table, medium_id):
    depth = 0
    for row in medium_table.ranges_of(medium_id):
        if row.target != MEDIUM_NONE:
            depth = max(depth, 1 + _chain_depth(medium_table, row.target))
    return depth


def _layer_state(state, arrays):
    """End-of-timed-phase readings of the index, mediums, cluster and
    service (taken with tracing off)."""
    depth = max(
        _chain_depth(array.medium_table, array.volumes.anchor_medium(volume))
        for array in arrays for volume in state.oracle.volumes
    )
    layer = {
        "stored_facts": stored_facts(arrays),
        "live_facts": sum(relation.live_fact_count()
                          for array in arrays for relation in array.tables),
        "chain_depth": depth,
        "cluster_retries": 0,
        "waits": [],
        "shed": 0,
        "delayed": 0,
        "shed_by_tenant": {},
    }
    cluster = getattr(state, "cluster", None)
    if cluster is not None:
        metrics = cluster.obs.metrics
        layer["cluster_retries"] = (
            metrics.counter("cluster.stale_retries").value
            + metrics.counter("cluster.failovers").value
        )
    frontend = getattr(state, "frontend", None)
    if frontend is not None:
        for stats in frontend.stats.values():
            layer["waits"].extend(stats.waits)
            layer["shed"] += stats.shed
            layer["delayed"] += stats.delayed
            layer["shed_by_tenant"][stats.tenant] = stats.shed
    return layer


def run_pass(workload, seed, speed, tracer=None):
    gc.collect()
    wall_start = perf_counter()
    start = host_time()
    state = workload.setup(seed)
    setup_s = host_time() - start
    arrays = workload.arrays(state)
    drives = [drive for array in arrays for drive in array.drives.values()]
    flash_start = _flash_bytes(drives)
    counters_start = _controller_counters(arrays)
    # The traced pass takes no speed samples: they would read as time
    # outside every span.
    rec = Recorder() if tracer is not None else Recorder(speed.tick)
    gc.collect()
    if tracer is not None:
        tracer.start_window()
    start, cpu_start, other_start = host_time(), thread_time(), _other_cpu()
    spent_start, first_sample = speed.spent, len(speed.samples)
    workload.run(state, rec, tracer)
    kernel_s = speed.spent - spent_start
    samples = speed.samples[first_sample:]
    timed_s = host_time() - start - kernel_s
    thread_cpu_s = thread_time() - cpu_start - kernel_s
    other_cpu_s = _other_cpu() - other_start
    if tracer is not None:
        tracer.stop_window()
    flash_timed = _flash_bytes(drives) - flash_start
    counters_mid = _controller_counters(arrays)
    reduction = workload.reduction(state)
    layer = _layer_state(state, arrays)
    if tracer is not None:
        tracer.start_window()
    recovered, recovery_s, recover_facts = workload.finish(state, rec, tracer)
    if tracer is not None:
        tracer.stop_window()
    counters_end = _controller_counters(recovered)
    window_counters = {
        key: counters_mid[key] - counters_start[key] + counters_end[key]
        for key in counters_start
    }
    expected_readback = sum(state.oracle.sizes.values()) * len(recovered)
    return SimpleNamespace(
        setup_s=setup_s,
        timed_s=timed_s,
        factor=Speed.factor(samples) if samples else None,
        thread_cpu_s=thread_cpu_s,
        other_cpu_s=other_cpu_s,
        wall_s=perf_counter() - wall_start,
        rec=rec,
        flash_timed=flash_timed,
        flash_window=_flash_bytes(drives) - flash_start,
        reduction=reduction,
        recovery_s=recovery_s,
        recover_facts=recover_facts,
        counters=window_counters,
        layer=layer,
        readback_complete=rec.readback_bytes == expected_readback,
    )


def _signature(result):
    """Everything a pass's simulation decides; host time excluded."""
    rec = result.rec
    return (
        tuple(rec.sim_write), tuple(rec.sim_read), tuple(rec.facts_by_tenth),
        rec.attempted, rec.errors, rec.shed, rec.unexpected_sheds,
        rec.mismatches,
        rec.readback_mismatches, result.flash_timed, result.reduction,
        result.recovery_s, result.recover_facts,
    )


# ----------------------------------------------------------------------
# Metrics


def _median_us(samples):
    return statistics.median(samples) * 1e6 if samples else 0.0


def _mean_us(samples):
    return statistics.fmean(samples) * 1e6 if samples else 0.0


def _tenths(samples):
    count = len(samples)
    return [samples[(count * tenth) // 10:(count * (tenth + 1)) // 10]
            for tenth in range(10)]


def _host_series(passes, kinds=(True, False)):
    """Median host us/op in each tenth of the timed phase, pooled across
    passes; ``kinds`` selects writes (True) and/or reads (False)."""
    pooled = [[] for _ in range(10)]
    for result in passes:
        for tenth, chunk in enumerate(_tenths(result.rec.host)):
            pooled[tenth].extend(
                seconds for kind, seconds in chunk if kind in kinds
            )
    return [_median_us(chunk) for chunk in pooled]


def cost_growth(passes):
    """Last-tenth over first-tenth median host cost, per op kind, then
    the geometric mean of the two kinds.

    Each kind is taken on its own: a tenth holding writes and reads in
    similar numbers has its median between the two modes, where it
    jumps with the exact mix.
    """
    product = 1.0
    for kind in (True, False):
        series = _host_series(passes, kinds=(kind,))
        product *= series[-1] / series[0]
    return product ** 0.5


def _host_by_kind(passes, is_write):
    return [seconds for result in passes
            for kind, seconds in result.rec.host if kind == is_write]


def _percentile_us(samples, fraction):
    return percentile(samples, fraction) * 1e6 if samples else 0.0


def end_to_end(passes, setups):
    """The end-to-end metrics of a ``--trace 0`` run.

    Every host time is wall time scaled to nominal machine speed
    (:mod:`perfbench.speed`): ``setups`` are scaled already, and each
    pass's timed phase by the speed samples taken during it.

    Host cost per call is a mean, not a median: at the parent commit the
    cost per op climbs through the timed phase, so the median op sits in
    a narrow stretch of it and follows whatever the machine did then.
    Across two sets of ten runs the ``vdi`` read median moved 30% while
    ``ops_per_s`` moved 15%.
    """
    first = passes[0]
    rec = first.rec
    ops = sum(len(result.rec.host) for result in passes)
    served = rec.attempted - rec.errors - rec.shed - rec.mismatches

    def scaled(is_write):
        return [seconds * result.factor for result in passes
                for kind, seconds in result.rec.host if kind == is_write]

    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(result.timed_s * result.factor
                               for result in passes),
        "host_write_mean_us": _mean_us(scaled(True)),
        "host_read_mean_us": _mean_us(scaled(False)),
        "data_reduction": first.reduction,
        "flash_write_amp": first.flash_timed / rec.user_bytes,
        "served_frac": served / rec.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def simulated(result):
    """Simulated-time outcomes of one pass: the same for every pass of
    a seed, so they guard the simulation, not the host."""
    rec = result.rec
    failed = rec.errors + rec.shed + rec.mismatches + rec.readback_mismatches
    return {
        "sim_write_p50_us": _percentile_us(rec.sim_write, 0.50),
        "sim_write_p99_us": _percentile_us(rec.sim_write, 0.99),
        "sim_read_p50_us": _percentile_us(rec.sim_read, 0.50),
        "sim_read_mean_us": statistics.fmean(rec.sim_read) * 1e6,
        "sim_read_p99_us": _percentile_us(rec.sim_read, 0.99),
        "sim_recovery_s": result.recovery_s,
        "failed_frac": failed / rec.attempted,
    }


def per_layer(untraced, traced, tracer, speed):
    stats, root_ns = tracer.rollup()
    totals, maxima = tracer.totals, tracer.maxima

    def row(name):
        return stats.get(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})

    def incl(*names):
        return sum(row(name)["incl_ns"] for name in names) / 1e9

    def own(*names):
        return sum(row(name)["self_ns"] for name in names) / 1e9

    def calls(name):
        return row(name)["calls"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    layer = traced.layer
    counters = traced.counters
    metrics = {}
    for metric, span in (
        ("pyramid.scan", "pyramid.scan"), ("pyramid.get", "pyramid.get"),
        ("core.write", "core.write"), ("core.read", "core.read"),
        ("core.commit", "core.commit"), ("core.drain", "core.drain"),
        ("core.gc", "core.gc"), ("core.scrub", "core.scrub"),
        ("core.recover", "core.recover"),
        ("dedup.find_matches", "dedup.find_matches"),
        ("compression.compress", "compression.compress"),
        ("compression.decompress", "compression.decompress"),
        ("layout.append", "layout.append"), ("layout.flush", "layout.flush"),
        ("layout.read_payload", "layout.read_payload"),
        ("erasure.encode", "erasure.encode"),
        ("erasure.reconstruct", "erasure.reconstruct"),
        ("ssd.write", "ssd.write"), ("ssd.read", "ssd.read"),
        ("mediums.ranges_of", "mediums.ranges_of"),
        ("cluster.advance", "cluster.advance"),
    ):
        metrics[metric + "_s"] = incl(span)
        metrics[metric + "_self_s"] = own(span)
    scans = calls("pyramid.scan")
    host_writes = _host_by_kind([untraced], True)
    host_reads = _host_by_kind([untraced], False)
    lookups = counters["hits"] + counters["misses"]
    cluster_writes = calls("cluster.write")
    metrics.update({
        "pyramid.scan_calls": scans,
        "pyramid.facts_per_scan": ratio(totals["pyramid.scan_facts"], scans),
        "pyramid.stored_facts": layer["stored_facts"],
        "pyramid.live_facts": layer["live_facts"],
        "pyramid.patches_max": maxima["pyramid.patches_max"],
        "core.drains": calls("core.drain")
        - sum(1 for span in tracer.spans
              if span.name == "core.drain" and span.nested),
        "core.gc.segments": totals["core.gc.segments"],
        "core.gc.bytes_rewritten": totals["core.gc.bytes_rewritten"],
        "core.recover.facts": traced.recover_facts,
        "core.cblock_cache.hit_rate": ratio(counters["hits"], lookups),
        "core.cblock_cache.evictions": counters["evictions"],
        "core.host_write_p50_us": _median_us(host_writes),
        "core.host_read_p50_us": _median_us(host_reads),
        "core.host_write_p99_us": _percentile_us(host_writes, 0.99),
        "core.host_read_p99_us": _percentile_us(host_reads, 0.99),
        "core.host_cost_growth": cost_growth([untraced]),
        "dedup.calls": calls("dedup.find_matches"),
        "dedup.matched_frac": ratio(totals["dedup.matched_bytes"],
                                    totals["dedup.examined_bytes"]),
        "compression.ratio": ratio(totals["compression.in_bytes"],
                                   totals["compression.out_bytes"]),
        "layout.flushes": calls("layout.flush"),
        "layout.read_payload_calls": calls("layout.read_payload"),
        "layout.reconstructs": counters["reconstructs"],
        "erasure.encode_bytes": totals["erasure.encode_bytes"],
        "ssd.writes": calls("ssd.write"),
        "ssd.bytes_written": totals["ssd.bytes_written"],
        "ssd.flash_bytes_written": traced.flash_window,
        "ssd.reads": calls("ssd.read"),
        "ssd.bytes_read": totals["ssd.bytes_read"],
        "mediums.ranges_of_calls": calls("mediums.ranges_of"),
        "mediums.chain_depth_max": layer["chain_depth"],
        "cluster.self_s": own("cluster.write", "cluster.read",
                              "cluster.advance"),
        "cluster.replica_writes_per_write": ratio(
            tracer.child_calls("core.write", "cluster.write"),
            cluster_writes),
        "cluster.retries": layer["cluster_retries"],
        "service.self_s": own("service.run", "service.drain"),
        "service.queue_wait_p99_us": _percentile_us(layer["waits"], 0.99),
        "service.shed": layer["shed"],
        "service.delayed": layer["delayed"],
        "host.thread_cpu_frac": untraced.thread_cpu_s / untraced.timed_s,
        "host.other_cpu_s": untraced.other_cpu_s,
        "host.speed_kernel_us": speed.median_s() * 1e6,
        "trace.overhead_frac": traced.timed_s / untraced.timed_s - 1.0,
        "trace.unattributed_frac": ratio(tracer.window_ns - root_ns,
                                         tracer.window_ns),
    })
    metrics.update(simulated(untraced))
    for tenth, value in enumerate(_host_series([untraced])):
        metrics["core.us_per_op_by_tenth.%d" % tenth] = value
    for tenth, value in enumerate(untraced.rec.facts_by_tenth):
        metrics["pyramid.stored_facts_by_tenth.%d" % tenth] = value
    return metrics


# ----------------------------------------------------------------------
# Output


def _table(title, metrics, units):
    lines = ["%s:" % title]
    for name in sorted(metrics):
        lines.append("  %-40s %16.6g %s" % (name, metrics[name], units[name]))
    return "\n".join(lines)


def _load_declared(root, trace):
    with open(root / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    section = declared["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(args, root):
    workload = WORKLOADS[args.workload]
    stamp = environment(root, args)
    units = _load_declared(root, args.trace)
    problems = []
    speed = Speed()
    # These set-ups give ``setup_s`` its median and warm the process up
    # the same way in both modes.
    setups, setups_wall = [], 0.0
    while len(setups) < SETUP_REPEATS or setups_wall < SETUP_SECONDS:
        around = [speed.sample() for _ in range(SETUP_SAMPLES)]
        gc.collect()
        start = host_time()
        workload.setup(args.seed)
        wall = host_time() - start
        around += [speed.sample() for _ in range(SETUP_SAMPLES)]
        setups_wall += wall
        setups.append(wall * Speed.factor(around))
    if args.trace:
        untraced = run_pass(workload, args.seed, speed)
        tracer = tracing.Tracer()
        tracing.patch_parse_cblock(tracer)
        traced = run_pass(workload, args.seed, speed, tracer)
        passes = [untraced, traced]
        metrics = per_layer(untraced, traced, tracer, speed)
    else:
        passes = []
        budget_start = perf_counter()
        while True:
            result = run_pass(workload, args.seed, speed)
            passes.append(result)
            elapsed = perf_counter() - budget_start
            if elapsed + result.wall_s > args.seconds:
                break
        metrics = end_to_end(passes, setups)
    stamp["speed_kernel_us"] = round(speed.median_s() * 1e6, 3)

    rec = passes[0].rec
    if len({_signature(result) for result in passes}) != 1:
        problems.append("passes of one seed simulated differently")
    if rec.mismatches or rec.readback_mismatches:
        problems.append("%d read and %d read-back mismatches against the "
                        "reference model" % (rec.mismatches,
                                             rec.readback_mismatches))
    if rec.errors:
        problems.append("%d operations raised errors" % rec.errors)
    if rec.unexpected_sheds:
        problems.append("%d requests shed other than as over-limit queue-full"
                        % rec.unexpected_sheds)
    if not all(result.readback_complete for result in passes):
        problems.append("read-back did not cover every acknowledged byte")
    if set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(units)))
    correct = not problems

    summary = {
        "environment": stamp,
        "passes": len(passes),
        "timed_s": [round(result.timed_s, 6) for result in passes],
        "setup_s": [round(result.setup_s, 6) for result in passes],
        "speed_factor": [result.factor for result in passes],
        "samples": {
            "host_ops": len(rec.host),
            "sim_writes": len(rec.sim_write),
            "sim_reads": len(rec.sim_read),
        },
        "attempted": rec.attempted,
        "errors": rec.errors,
        "shed": rec.shed,
        "unexpected_sheds": rec.unexpected_sheds,
        "shed_by_tenant": passes[0].layer["shed_by_tenant"],
        "mismatches": rec.mismatches,
        "readback_bytes": rec.readback_bytes,
        "readback_mismatches": rec.readback_mismatches,
        "problems": problems,
        "metrics": metrics,
        "simulated": simulated(passes[0]),
        "host_cost_growth": cost_growth(passes),
        "us_per_op_by_tenth": _host_series(passes),
        "stored_facts_by_tenth": rec.facts_by_tenth,
    }
    results = root / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(results / (stem + ".json"), "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    if args.trace:
        tracer.dump(results / (stem + "-spans.jsonl"))

    print("environment: " + json.dumps(stamp, sort_keys=True))
    print("passes: %d, timed phase %s s, samples %s" % (
        len(passes), summary["timed_s"], summary["samples"]))
    known = {name: units.get(name, "?") for name in metrics}
    print(_table("per-layer metrics" if args.trace else "end-to-end metrics",
                 metrics, known))
    for problem in problems:
        print("INCORRECT: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.errors + rec.unexpected_sheds + rec.mismatches
        + rec.readback_mismatches,
        "metrics": {
            name: {"value": metrics[name], "unit": known[name]}
            for name in sorted(metrics)
        },
    }))
    return 0 if correct else 1
