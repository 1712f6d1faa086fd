#!/usr/bin/env python3
"""Repository benchmark for the NoFTL reproduction.

    python3 perfbench/run.py --workload tpcb-gc --seed 1 --seconds 10 --trace 0

Runs one workload (``tpcb-gc``, ``tpcc-cached`` or ``dev-open``, see
``perfbench/README.md``) in this single process, checks its outputs and
prints a human-readable report followed by one JSON line:

* ``--trace 0`` measures the end-to-end metrics with tracing off;
* ``--trace 1`` runs the workload untraced and then traced with the same
  seed, and reports the per-layer metrics plus the tracing overhead.

``--seconds`` sets the simulated length of the measured window through a
fixed per-workload conversion, so simulated results depend only on the
seed and ``--seconds``, never on host speed.  The exit code is 0 when
every correctness check passed, 1 when one failed or the program raised,
and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback

from hostclock import HostClock
from layers import LAYERS, LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _declared_units() -> tuple:
    """``({end-to-end name: unit}, {per-layer name: unit})`` as declared
    in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per(count, ops):
    return count / ops if ops else 0.0


def _p99(samples):
    from repro.sim import percentile

    return percentile(samples, 99) if samples else 0.0


def _layer_metrics(result: dict, overhead: float) -> dict:
    """Per-layer metrics of a traced episode (0 where a layer is not
    reached)."""
    window = result["window"]
    trace = result["trace"]
    # Window counters cover every completed op of the window.
    ops = result["host_ops"]
    sim = result["sim"]
    d = window.delta
    total_s = sum(trace["self_s"].values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = _per(trace["self_s"][layer], total_s)
        if layer != "sim":
            metrics[f"{layer}.calls_per_op"] = _per(trace["calls"][layer],
                                                    ops)
    victims = window.samples("ftl.gc.victim_valid")
    metrics.update({
        "sim.events_per_op": sim["events_per_op"],
        "workloads.op_p99_us": _p99(result["latency"]),
        "workloads.retries_per_commit": _per(sim.get("retries", 0), ops),
        "db.buffer_hit_ratio": sim.get("buffer_hit_ratio", 0.0),
        "db.dirty_eviction_stalls_per_op": _per(d("dirty_stalls"), ops),
        "db.commit_p99_us": _p99(window.samples("db.txn_commit_us")),
        "db.wal_commits_per_flush": _per(d("db_commits"), d("wal_flushes")),
        "device.read_cache_hit_ratio": _per(d("fe_cache_hits"),
                                            d("fe_reads")),
        "device.coalesced_per_write": _per(d("fe_coalesced"), d("fe_acks")),
        "device.destage_throttled_per_destage": _per(d("fe_throttled"),
                                                     d("fe_destages")),
        "device.sustained_ops_per_s": sim.get("sustained_ops_per_s", 0.0),
        "device.overload_shed_frac": sim.get("overload_shed_frac", 0.0),
        "device.overload_read_p99_us": sim.get("overload_read_p99_us", 0.0),
        "core.read_p99_us": _p99(window.samples("noftl.read_us")),
        "core.write_p99_us": _p99(window.samples("noftl.write_us")),
        "core.region_lock_waits_per_op": _per(d("lock_waits"), ops),
        "ftl.victim_valid_mean": _per(sum(victims), len(victims)),
        "ftl.gc_collect_p99_us": _p99(window.samples("ftl.gc.collect_us")),
        "ftl.gc_backoff_waits_per_op": _per(d("gc_backoff_waits"), ops),
        "ftl.erases_per_kwrite": window.erases_per_kwrite(),
        "ftl.gc_left_in_flight": result["gc_left_in_flight"],
        "flash.commands_per_op.read": _per(d("flash_reads"), ops),
        "flash.commands_per_op.program": _per(d("programs"), ops),
        "flash.commands_per_op.copyback": _per(d("copybacks"), ops),
        "flash.commands_per_op.erase": _per(d("erases"), ops),
        "flash.die_busy_frac": _per(d("busy_us"),
                                    d("sim_us") * result["dies"]),
        "flash.queue_wait_p99_us": _p99(
            window.samples("flash.queue_wait_us")),
        "trace_overhead": overhead,
    })
    return metrics


def _report_episode(result: dict, label: str) -> bool:
    """Print one episode; return whether all its checks passed."""
    sim = result["sim"]
    print(f"[{label}] {result['workload']} episode seed {result['seed']}: "
          f"setup {result['setup_s']:.2f} s; gated window "
          f"{result['window_sim_s']:.3f} sim-s, whole window "
          f"{result['wall_s']:.2f} s; {result['ops']} ops completed "
          f"of {result['attempted']} attempted, {result['failed']} "
          f"failed")
    print(f"  write_amp {sim['write_amp']:.4f}, erases_per_kwrite "
          f"{sim['erases_per_kwrite']:.3f}, events per op "
          f"{sim['events_per_op']:.2f}")
    for line in result["lines"]:
        print("  " + line)
    for name, ok, detail in result["checks"]:
        print(f"  check {name}: {'ok' if ok else 'FAILED: ' + detail}")
    return all(ok for __, ok, __ in result["checks"])


def _comparable(result: dict) -> str:
    """The simulated figures of an episode, for determinism checks."""
    return json.dumps([result["sim"], result["latency"]], sort_keys=True)


def episode_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def run(args, clock: HostClock) -> dict:
    from scenarios import WORKLOADS, combine

    end_to_end_units, layer_units = _declared_units()
    spec = WORKLOADS[args.workload]
    episodes = spec.episodes
    seconds = args.seconds / episodes
    correct = True

    if not args.trace:
        results = []
        for index in range(episodes):
            result = spec.run(episode_seed(args.seed, index), seconds, clock)
            correct &= _report_episode(result, "untraced")
            # Keep the figures, free the rig before the next episode.
            del result["window"]
            results.append(result)
            gc.collect()
        if spec.sizing_s:
            print(f"device sizing (footprint measurement, once per "
                  f"process, not in setup_s): {spec.sizing_s:.2f} s")
        pooled = combine(results)
        latency = pooled["latency"]
        print(f"pooled over {episodes} episodes: {results[0]['op_kind']} "
              f"latency mean {latency['mean']} us, p99 {latency['p99']} us "
              f"over {latency['count']} samples ({latency['beyond_p99']} "
              f"beyond p99); setup_s per episode "
              f"{[round(r['setup_s'], 3) for r in results]}")
        print(f"episodes with a GC collection left in flight after the "
              f"run (defect 3): {pooled['gc_left_in_flight']} of "
              f"{episodes}")
        metrics = {
            "host_ops_per_s": pooled["host_ops_per_s"],
            "setup_s": pooled["setup_s"],
            "peak_rss_mb": _peak_rss_mb(),
            "sim_ops_per_s": pooled["sim_ops_per_s"],
            "op_mean_us": latency["mean"],
            "write_amp": pooled["write_amp"],
        }
        units = end_to_end_units
        attempted, failed = pooled["attempted"], pooled["failed"]
    else:
        seed = episode_seed(args.seed, 0)
        plain = spec.run(seed, seconds, clock)
        correct &= _report_episode(plain, "untraced")
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = spec.run(seed, seconds, clock, tracer=tracer)
        finally:
            tracer.remove()
        correct &= _report_episode(traced, "traced")
        same = _comparable(traced) == _comparable(plain)
        balanced = traced["trace"]["depth"] == 1
        print(f"  check traced and untraced runs of one seed give identical"
              f" simulated metrics: {'ok' if same else 'FAILED'}")
        print(f"  check span stack balanced: "
              f"{'ok' if balanced else 'FAILED'}")
        correct &= same and balanced
        for layer, calls in traced["trace"]["calls"].items():
            print(f"  layer {layer}: self "
                  f"{traced['trace']['self_s'][layer]:.3f} s, calls {calls}")
        metrics = _layer_metrics(traced, traced["wall_s"] / plain["wall_s"])
        units = layer_units
        attempted, failed = traced["attempted"], traced["failed"]

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"are not both measured and declared in "
                           f"BENCHMARK.json")
    for name, value in metrics.items():
        if value is None:  # no samples: report 0, fail the run
            print(f"  check metric {name} measured: FAILED (no samples)")
            metrics[name] = value = 0.0
            correct = False
        print(f"metric {name} = {value} {units[name]}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tpcb-gc", "tpcc-cached", "dev-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program source not found at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    clock = HostClock()
    clock.start()
    try:
        result = run(args, clock)
    except Exception:
        # The program raised: record the run as failed, with the
        # exception, rather than retrying or re-seeding it.
        print("perfbench: the workload raised; run recorded as failed",
              file=sys.stderr)
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        clock.stop()
    print(f"host speed over the run: {clock.speed():.3f} of the reference "
          f"(host figures are in reference seconds, see hostclock.py)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
