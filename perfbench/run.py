"""Benchmark for netident: one workload per process, outputs checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-recover --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``. A run:

1. pins BLAS to one thread, generates the instance list from ``--seed``
   (untimed: the benchmark's own work), then sets up (fresh import of
   ``netident`` from ``src/``, a ``Graph`` built for each instance, CLI
   input files written); ``setup_s`` is the median of the set-ups of
   two groups, one before the passes and one after, each of at least
   two set-ups and ``SETUP_GROUP_S`` seconds;
2. runs one warm-up instance of each kind, untimed;
3. runs whole passes (at least two) over the instance list until the
   instances have been timed for ``--seconds``, checking every output
   after its clock stops (see ``pipelines.py``);
4. prints the run environment, the instance-list digest, a summary, and
   as its last line one JSON object with the ``end_to_end`` metrics
   (``--trace 0``) or the ``per_layer`` metrics (``--trace 1``).

Closed loop, one instance at a time. Latencies and throughput use each
instance's mean over passes; fractions count every attempt.

End-to-end times are reference seconds. A fixed Python-and-numpy kernel
(the gauge) is timed before and after each group of set-ups, between
instances once ``GAUGE_EVERY_S`` of timed work has passed since the last
gauge, and after the last pass, so the number of gauges follows the
``--seconds`` budget, not the program's speed. Each time is scaled by
``REFERENCE_NOMINAL_S`` over the mean of the gauges on either side. On
a host where the kernel takes 7 ms this is the identity; on a host whose
speed swings (by up to 2x, for seconds to minutes, on a shared two-vCPU
Xeon VM) it removes much of the swing, which the program cannot cause.
Raw figures are printed too, and per-layer times stay raw. Traced runs
take no gauges.

With ``--trace 1`` the one set-up runs with every layer function wrapped
in a span (``tracing.py``; the tracer goes in after the import), and the
passes alternate: one untraced, then the same instances traced.
Per-layer figures are for the traced set-up plus one traced pass over
the instance list; ``trace.overhead_frac`` compares traced with
untraced instance time.

One JSON line per instance goes to ``perfbench/results/`` for diffing
between commits. ``failed`` counts the instance runs that broke a
guarantee no floating-point limit excuses (a hard failure, see
``pipelines.py``), and ``correct`` is false if there is one. Results
past the precision wall (a refusal, or a matrix off by more than the
tolerance) are the program's measured accuracy, not a failed
operation: they stay in the workloads and show in ``pass_frac`` and
``honest_frac``.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402
import pipelines  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_GROUP_S = 0.5
REFERENCE_NOMINAL_S = 0.007
GAUGE_EVERY_S = 0.5
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10
MIN_PASSES = 2


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, no BENCHMARK.json)."""


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None


def import_netident():
    """Import netident afresh from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "netident", "__init__.py")):
        raise SetupError(f"no netident sources under {SRC}")
    for name in [m for m in sys.modules if m == "netident" or m.startswith("netident.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    ni = importlib.import_module("netident")
    for sub in ("cli", "errors", "graph_core", "higher_order", "identifiability",
                "netsim", "reconstruct", "zero_forcing"):
        importlib.import_module(f"netident.{sub}")
    if not os.path.abspath(ni.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported netident from {ni.__file__}, not from {SRC}")
    return ni


def setup(insts, workdir: str, tracer=None):
    """Import, build a graph for each instance, write CLI inputs.

    ``tracer``, if given, spans everything after the import.
    """
    ni = import_netident()
    if tracer is not None:
        tracer.install()
    try:
        preps = []
        for i, inst in enumerate(insts):
            if inst.task == "cli":
                directory = os.path.join(workdir, str(i))
                pipelines.write_cli_inputs(inst, directory)
                preps.append(directory)
            else:
                preps.append(ni.Graph(inst.n, inst.edges))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ni, preps


def run_instance(ni, inst, prep, truth, tracer=None) -> pipelines.Outcome:
    if inst.task == "recover-heuristic":
        return pipelines.recover(ni, inst, prep, exact=False)
    if inst.task == "recover-exact":
        return pipelines.recover(ni, inst, prep, exact=True)
    if inst.task == "seed":
        return pipelines.seed_and_certify(ni, inst, prep)
    if inst.task == "closure":
        return pipelines.closure(ni, inst, prep, truth)
    return pipelines.cli(ni, inst, prep, tracer)


def closure_truths(insts) -> list:
    """The benchmark's own closure size for each ``closure`` instance."""
    return [checks.closure_size(inst.n, inst.edges, [1]) if inst.task == "closure" else None
            for inst in insts]


def warm_up(ni, insts, preps, truths) -> None:
    smallest = {}
    for i, inst in enumerate(insts):
        key = (inst.family, inst.task)
        if key not in smallest or inst.n < insts[smallest[key]].n:
            smallest[key] = i
    for i in smallest.values():
        run_instance(ni, insts[i], preps[i], truths[i])


def reference_seconds() -> float:
    """Mean time of five runs of a fixed Python-and-numpy kernel: a gauge
    of host speed at this moment. (The mean, not the fastest run: the
    instances run through the host's slow moments too.)"""
    t0 = time.perf_counter()
    for _ in range(5):
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        m = np.full((60, 60), 1e-2)
        for _ in range(20):
            m = m @ m / 60 + 1e-2
    return (time.perf_counter() - t0) / 5


def timed_pass(ni, insts, preps, truths, tracer=None) -> list:
    return [run_instance(ni, inst, prep, truth, tracer)
            for inst, prep, truth in zip(insts, preps, truths)]


# -- metrics -----------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ``MIN_BEYOND_TAIL`` samples above it, by nearest rank."""
    n = len(samples)
    pct = max([p for p in TAIL_LADDER if n * (1 - p / 100) >= MIN_BEYOND_TAIL],
              default=TAIL_LADDER[0])
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(samples)[rank - 1]


def per_instance(outcomes, per_pass: int, key=lambda o: o.seconds,
                 agg=statistics.fmean) -> list[float]:
    """Each instance's ``agg`` (mean) time over passes laid out one after another."""
    return [agg(map(key, outcomes[i::per_pass])) for i in range(per_pass)]


def reference_time(seconds: float, gauge_s: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / gauge_s


def end_to_end(outcomes, per_pass: int, setup_times, setup_scaled) -> tuple[dict, list[str]]:
    """End-to-end metrics over all untraced passes, in reference seconds.

    An instance's time is the mean of its gauge-scaled passes. (The
    mean, not the fastest pass: a faster program gets more passes, and
    the minimum of more samples is lower. On the host above the mean
    also spread least over repeated runs, next to the minimum and the
    median.) Latencies are percentiles over the
    distinct instances; throughput is instances over their summed time.
    """
    raw = per_instance(outcomes, per_pass)
    raw_setup = statistics.median(setup_times)
    times = per_instance(outcomes, per_pass, lambda o: reference_time(o.seconds, o.gauge_s))
    gauges = [o.gauge_s for o in outcomes]
    attempted = len(outcomes)
    ok = sum(o.status == "ok" for o in outcomes)
    wrong = sum(o.status == "wrong" for o in outcomes)
    seeded = [o for o in outcomes if o.seed_size is not None]
    pct, tail_value = tail(times)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "throughput": per_pass / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail_value,
        "pass_frac": ok / attempted,
        "honest_frac": 1 - wrong / attempted,
        "seed_frac": (sum(o.seed_size for o in seeded) / sum(o.n for o in seeded)
                      if seeded else 1.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    families = sorted({o.family for o in seeded})
    by_family = {f: sum(o.seed_size for o in seeded if o.family == f)
                 / sum(o.n for o in seeded if o.family == f) for f in families}
    notes = [
        f"latency_tail_s is p{pct:g} of {per_pass} instances, each timed "
        f"{attempted // per_pass} times",
        f"gauge seconds min {min(gauges):.5f} median {statistics.median(gauges):.5f} "
        f"max {max(gauges):.5f} per instance run; raw setup_s {raw_setup:.6f} "
        f"throughput {per_pass / sum(raw):.4f} latency_p50_s {statistics.median(raw):.6f} "
        f"latency_tail_s {tail(raw)[1]:.6f}",
        f"fail_frac {1 - ok / attempted:.4f} silent_wrong_frac {wrong / attempted:.4f}"
        f" (of {attempted} attempted)",
        "seed_frac by family " + json.dumps({f: round(v, 4) for f, v in by_family.items()}),
    ]
    return values, notes


def per_layer(spec, setup_tracer, setup_s: float, tracer, outcomes, passes: list[str],
              per_pass: int) -> dict:
    """Per-layer figures of the traced set-up plus one traced pass.

    ``setup_tracer`` holds the spans of the set-up, ``tracer`` those of
    all traced passes, whose sums are divided by the traced pass count.
    ``trace.overhead_frac`` compares each instance's fastest traced time
    with its fastest untraced time, summed over the instance list (the
    passes alternate, so both minima are over the same number of them).
    """
    by_mode = {"untraced": [], "traced": []}
    for k, mode in enumerate(passes):
        by_mode[mode] += outcomes[k * per_pass:(k + 1) * per_pass]
    untraced_s = sum(per_instance(by_mode["untraced"], per_pass, agg=min))
    traced_s = sum(per_instance(by_mode["traced"], per_pass, agg=min))
    n_traced = passes.count("traced")
    traced_total = sum(o.seconds for o in by_mode["traced"])
    setup_totals, totals = setup_tracer.layer_totals(), tracer.layer_totals()

    def combined(get) -> float:
        return get(setup_tracer, setup_totals) + get(tracer, totals) / n_traced

    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        layer, what = name.rsplit(".", 1)
        if layer == "trace":
            values[name] = (traced_s / untraced_s - 1 if what == "overhead_frac"
                            else setup_s - setup_tracer.root_seconds()
                            + (traced_total - tracer.root_seconds()) / n_traced)
        elif what == "closures_per_call":
            calls = combined(lambda t, tot: tot[layer]["calls"])
            nested = combined(lambda t, tot: t.nested_calls("zero_forcing.derived_set", layer))
            values[name] = nested / calls if calls else 0.0
        elif what in ("calls", "self_s"):
            values[name] = combined(lambda t, tot: tot[layer][what])
        elif what == "refused":
            values[name] = combined(lambda t, tot: tot[layer]["raised"])
        else:
            values[name] = combined(lambda t, tot: t.counts[layer][what])
    return values


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


# -- running a workload ------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, reduced: bool = False,
        records_path: str | None = None) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and human-readable lines."""
    spec = load_spec()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS)
    insts = instances.WORKLOADS[workload](seed, reduced)
    try:
        setup_times, setup_scaled = [], []

        def setup_group(tracer=None):
            """Set up at least twice and for SETUP_GROUP_S (once if traced)."""
            gauge_before = None if trace else reference_seconds()
            group = []
            while not group or not trace and (len(group) < 2 or sum(group) < SETUP_GROUP_S):
                gc.collect()
                t0 = time.perf_counter()
                made = setup(insts, workdir, tracer)
                group.append(time.perf_counter() - t0)
            if not trace:
                gauge_s = (gauge_before + reference_seconds()) / 2
                setup_scaled.extend(reference_time(t, gauge_s) for t in group)
            setup_times.extend(group)
            return made

        setup_tracer = tracing.Tracer() if trace else None
        ni, preps = setup_group(setup_tracer)
        truths = closure_truths(insts)
        warm_up(ni, insts, preps, truths)

        outcomes, passes = [], []
        timed, since_gauge = 0.0, 0.0
        gauge_s, between = (None if trace else reference_seconds()), []

        def gauge():
            nonlocal gauge_s, since_gauge
            after = reference_seconds()
            for o in between:
                o.gauge_s = (gauge_s + after) / 2
            gauge_s, since_gauge = after, 0.0
            between.clear()

        tracer = tracing.Tracer() if trace else None
        while timed < seconds or len(passes) < MIN_PASSES:
            for inst, prep, truth in zip(insts, preps, truths):
                if not trace and since_gauge >= GAUGE_EVERY_S:
                    gauge()
                out = run_instance(ni, inst, prep, truth)
                timed += out.seconds
                since_gauge += out.seconds
                between.append(out)
                outcomes.append(out)
            passes.append("untraced")
            if tracer is not None:
                tracer.install()
                try:
                    done = timed_pass(ni, insts, preps, truths, tracer)
                finally:
                    tracer.uninstall()
                timed += sum(o.seconds for o in done)
                outcomes += done
                passes.append("traced")
        if not trace:
            gauge()
            # A second group of set-ups runs after the passes, so the
            # median spans the run rather than one moment of it.
            setup_group()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [
        f"workload {workload} seed {seed} instances {len(insts)} "
        f"digest {instances.digest(insts)} passes {len(passes)}",
        "environment " + json.dumps(environment(), sort_keys=True),
    ]
    if trace:
        values = per_layer(spec, setup_tracer, setup_times[0], tracer, outcomes, passes,
                           len(insts))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, notes = end_to_end(outcomes, len(insts), setup_times, setup_scaled)
        lines += notes
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    hard = [o for o in outcomes if o.hard]
    lines += [f"hard failure: {o.family} n={o.n}: {o.detail}" for o in hard[:5]]

    if records_path is not None:
        with open(records_path, "w") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                                 "digest": instances.digest(insts),
                                 "environment": environment(),
                                 "setup_s": setup_times}) + "\n")
            per_pass = len(insts)
            for k, o in enumerate(outcomes):
                rec = {"pass": k // per_pass, "mode": passes[k // per_pass], **o.record()}
                fh.write(json.dumps(rec) + "\n")

    result = {
        "correct": not hard,
        "attempted": len(outcomes),
        "failed": len(hard),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    records = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            records_path=records)
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
