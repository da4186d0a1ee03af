"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload xcluster-rmw --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from that
checkout's ``src``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs every unit once untraced and once
traced, checks that both give identical results, and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Spans and the compiled engine core are written here, in the checkout.
OUT = ROOT / ".perfbench"
#: Fresh processes that repeat the set-up, for the ``setup_s`` median.
SETUP_REPEATS = 2
#: Every unit runs at least this often.  The host's speed drifts in
#: phases of seconds; litmus-check runs of two passes (about 13 s each)
#: spread much more over repeated runs than runs of three.
MIN_PASSES = 3
NOTE = ("note: these synthetic workloads have no reference results; the "
        "timing model is unvalidated here and the paper comparisons stay "
        "in EXPERIMENTS.md")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--violate-atomicity", action="store_true",
                        help="build every system with Rule-II enforcement "
                             "off; the units must then fail")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def bootstrap() -> dict:
    """Import the checkout's simulator; returns the metric table.

    Exits with code 2 when the checkout has no simulator source or no
    ``BENCHMARK.json``.
    """
    source = ROOT / "src" / "repro" / "__init__.py"
    spec = ROOT / "BENCHMARK.json"
    if not source.is_file() or not spec.is_file():
        print(f"error: {ROOT} has no src/repro package or no BENCHMARK.json",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    # The compiled engine core, and the compiler's scratch files, stay
    # inside the checkout.
    os.environ["REPRO_ENGINE_CACHE"] = str(OUT / "engine")
    os.environ["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    import repro

    if Path(repro.__file__).resolve() != source.resolve():
        print(f"error: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(spec.read_text())


def ratio(num, den):
    return num / den if den else 0.0


def measure(workload, seconds: float):
    """Run passes over every unit until ``seconds`` of wall time passed,
    and at least :data:`MIN_PASSES`; returns every unit's results."""
    results = []
    started = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        for key in workload.units:
            results.append(workload.run(key))
            if passes:
                # One sample's simulated results per unit suffice, and
                # the peak RSS then does not grow with the pass count.
                results[-1].runs.clear()
        passes += 1
    return results


def per_unit(results):
    """Successful samples grouped by unit; a unit with a failed sample
    is left out."""
    groups: dict = {}
    failed = {r.key for r in results if not r.ok}
    for r in results:
        if r.key not in failed:
            groups.setdefault(r.key, []).append(r)
    return groups


def end_to_end(results, setup_s, peak_rss_mb) -> dict:
    """Rates are totals over every sample of every unit that never
    failed; ``check_s`` sums each unit's mean time to its verdict.

    Totals, not medians: the host's speed drifts in phases of seconds,
    and over repeated runs the total spread least of the estimators
    tried (median, minimum, lower quartile, median pass).
    """
    samples = [r for rs in per_unit(results).values() for r in rs]
    sim_s = sum(r.sim_s for r in samples)
    return {
        "sim_ops_per_s": ratio(sum(r.ops for r in samples), sim_s),
        "sim_msgs_per_s": ratio(sum(r.msgs for r in samples), sim_s),
        "check_s": sum(statistics.mean([r.verdict_s for r in rs])
                       for rs in per_unit(results).values()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def model_stats(results) -> dict:
    """Exact simulated statistics over one sample of every unit."""
    firsts = [rs[0] for rs in per_unit(results).values()]
    runs = [run for r in firsts for run in r.runs]
    ops = sum(run.stats.ops for run in runs)
    misses = sum(run.stats.misses for run in runs)
    return {
        "model.exec_ns": sum(run.exec_ns for run in runs),
        "model.msgs_per_op": ratio(sum(r.msgs for r in firsts),
                                   sum(r.ops for r in firsts)),
        "model.miss_high_frac": ratio(
            sum(run.stats.miss_count(bin_name="high") for run in runs),
            misses),
        "model.avg_miss_ns": ratio(
            sum(run.stats.miss_cycles() for run in runs), misses) / 1000,
        "l1.hit_frac": ratio(sum(run.stats.hits for run in runs), ops),
    }


def trace_run(workload, name: str):
    """Every unit untraced, then traced.

    Returns the untraced results, the traced results and the per-layer
    metrics.  The untraced twin runs before the wrappers are installed, so it is
    a true reference for the traced unit's results and time.
    """
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for cell, key in enumerate(workload.units):
        plain.append(workload.run(key))
        tracer.cell = cell
        tracer.install_sim()
        if name == "litmus-check":
            tracer.install_mc()
        try:
            traced.append(workload.run(key, tracer))
        finally:
            tracer.uninstall()
        twin, unit = plain[-1], traced[-1]
        if twin.ok and unit.ok and (
                pickle.dumps(twin.runs) != pickle.dumps(unit.runs)
                or twin.check != unit.check):
            unit.ok = False
            unit.error = "traced results differ from untraced results"
    tracer.dump(OUT / f"spans-{name}.npz")
    self_s, span_s, spans = tracer.layer_totals()
    # The model checker's layers as shares of the traced checks' time: a
    # share is 0 on a workload without checks, where a time would read
    # the same 0 s on every run.
    checking = span_s["mc.frontier"]
    counts = tracer.counts
    ops = counts["cpu.ops"]
    msgs = counts["network.msgs"]
    checks = [r for r in plain if r.check]
    states = sum(r.check["states"] for r in checks)
    replays = sum(r.check["replays"] for r in checks)
    layer = {
        "engine.events": counts["engine.events"],
        "engine.self_s": self_s["engine"],
        "engine.ns_per_event": 1e9 * ratio(self_s["engine"],
                                           counts["engine.events"]),
        "network.msgs": msgs,
        "network.sends": counts["network.sends"],
        "network.msgs_per_send": ratio(msgs, counts["network.sends"]),
        "network.cross_frac": ratio(counts["network.cross"], msgs),
        "network.self_s": self_s["network"],
        "network.ns_per_msg": 1e9 * ratio(self_s["network"], msgs),
        "cpu.callbacks": spans["cpu"],
        "cpu.callbacks_per_op": ratio(spans["cpu"], ops),
        "cpu.self_s": self_s["cpu"],
        "cpu.ns_per_op": 1e9 * ratio(self_s["cpu"], ops),
        "l1.requests": counts["l1.requests"],
        "l1.msgs_handled": counts["l1.msgs"],
        "l1.self_s": self_s["l1"],
        "l1.ns_per_op": 1e9 * ratio(self_s["l1"], ops),
        "bridge.msgs_handled": counts["bridge.msgs"],
        "bridge.self_s": self_s["bridge"],
        "bridge.ns_per_msg": 1e9 * ratio(self_s["bridge"],
                                         counts["bridge.msgs"]),
        "port.calls": counts["port.calls"],
        "port.conflicts": counts["port.conflicts"],
        "port.self_s": self_s["port"],
        "home.msgs_handled": counts["home.msgs"],
        "home.queued": counts["home.queued"],
        "home.self_s": self_s["home"],
        "mc.states": states,
        "mc.replays": replays,
        "mc.replays_per_state": ratio(replays, states),
        "mc.states_per_s": ratio(states, sum(r.verdict_s for r in checks)),
        "mc.replay_frac": ratio(self_s["mc.replay"], checking),
        "mc.fingerprint_frac": ratio(self_s["mc.fingerprint"], checking),
        "mc.invariants_frac": ratio(self_s["mc.invariants"], checking),
        "mc.frontier_frac": ratio(self_s["mc.frontier"], checking),
        "trace.overhead": ratio(sum(r.timed_s for r in traced),
                                sum(r.timed_s for r in plain)),
    }
    return plain, traced, layer


def setup_repeats(argv) -> list:
    """Set-up seconds of fresh processes repeating this run's set-up."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), *argv,
               "--setup-only"]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def compiled_core_available() -> bool:
    from repro.sim.engine import load_compiled_engine_class

    return load_compiled_engine_class(build=True) is not None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    spec = bootstrap()
    import cells

    import_s = time.perf_counter() - STARTED
    if args.workload not in cells.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; available: "
              f"{', '.join(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = cells.WORKLOADS[args.workload](
        args.seed, violate_atomicity=args.violate_atomicity)
    workload.setup()
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.sim.engine import resolve_engine_class

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        plain, traced, metrics = trace_run(workload, args.workload)
        results = plain + traced
        metrics["setup.import_s"] = import_s
        metrics["setup.generate_s"] = workload.generate_s
        # The untraced pass's end-to-end figures, for the record only.
        untraced = end_to_end(plain, setup_s, 0.0)
        for name in ("sim_ops_per_s", "sim_msgs_per_s", "check_s"):
            print(f"untraced {name} {untraced[name]!r}")
        wanted = spec["per_layer"]
    else:
        results = measure(workload, args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = statistics.median([setup_s, *setup_repeats(argv)])
        metrics = end_to_end(results, setup, rss)
        wanted = spec["end_to_end"]
    metrics.update(model_stats(results))

    print(f"host nproc {os.cpu_count()} python {platform.python_version()} "
          f"engine {resolve_engine_class()[0]} "
          f"compiled_core {compiled_core_available()}")
    print(NOTE)
    for key in workload.units:
        samples = [r for r in results if r.key == key]
        bad = [r for r in samples if not r.ok]
        status = f"FAILED {bad[0].error}" if bad else "ok"
        print(f"unit {key} digest {samples[0].digest()} ops {samples[0].ops} "
              f"msgs {samples[0].msgs} {status} sim_s "
              f"{' '.join(f'{r.sim_s:.4f}' for r in samples)} verdict_s "
              f"{' '.join(f'{r.verdict_s:.4f}' for r in samples)}")
        for r in bad[:1]:
            print(r.trace, file=sys.stderr)
    for key in sorted(k for k in metrics if k.startswith("model.")):
        print(f"stat {key} {metrics[key]!r}")
    failed = sum(1 for r in results if not r.ok)
    print(f"failed_frac {ratio(failed, len(results))!r} "
          f"({failed} of {len(results)} units failed)")
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} {value!r} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
