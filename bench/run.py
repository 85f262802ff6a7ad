"""Benchmark of the tmlat package: one workload, one seed, one closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lattice-sparse --seed 1 --seconds 20 --trace 0

One client runs operations back to back in this process, on one thread,
in whole cycles of the workload's input mix until the time is up.
Inputs come from the seed; each operation's output is checked against
an independent reference.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, operation times in
ref-ms (see ``probe``); with ``--trace 1`` each operation runs twice,
once with spans around the package's public functions, and the metrics
are per layer.  The line before it records the environment, the failures
and the same figures in plain milliseconds ("as_timed").  The exit
status is 0 when every output was correct, 1 when one was not, and 2
when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 15.0  # per operation; an overrun fails the operation only
PROBE_LOOPS = 6000  # about a millisecond of pure Python on an idle 2.1 GHz Xeon

# Operation times are reported in ref-ms: one ref-ms is the wall time of
# the probe loop, timed between operations (see ``probe``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/ref-s",
    "op_p50_ms": "ref-ms",
    "op_p90_ms": "ref-ms",
    "cpu_ms_per_op": "ref-ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

SELF_TIMES = (
    "extlattice.extension_lattice", "core.SubsetLattice",
    "constructions.validate_lattice", "constructions.first_occurrence",
    "core.covers", "core.heights", "extlattice.hasse_dot",
    "matroid.bases", "matroid.circuits", "matroid.cocircuits",
    "matroid.transversal_presentation", "matching.rank",
    "matching.deletion_reach", "presentations.removable_pairs",
    "presentations.addable_pairs", "presentations.cover_chain",
    "presentations.maximalize", "presentations.presentation_rank",
    "cli.main", "core.lattice_doc",
)
PER_OP_COUNTS = (
    "extlattice.scan_candidates", "extlattice.members", "core.validation_pairs",
    "matroid.bases_count", "matroid.cocircuit_candidates", "verify.instances",
)
CACHES = ("element_supports", "deletion_reach")

PER_LAYER = {
    **{f"{name}.self_s": "s/op" for name in SELF_TIMES},
    "core.SubsetLattice.calls": "count/op",
    "matching.rank.calls": "count/op",
    **{name: "count/op" for name in PER_OP_COUNTS},
    "extlattice.scan_yield": "ratio",
    "matroid.witness_ratio": "ratio",
    **{f"matching.{name}.hit_ratio": "ratio" for name in CACHES},
    "verify.closed_family_table.self_s": "s",
    "bench.tracing_overhead": "ratio",
    "failed_ratio": "ratio",
}


class Deadline(BaseException):
    """Raised in an operation that runs past its deadline."""


def _expire(signum, frame):
    raise Deadline()


def probe() -> float:
    """Wall time of a fixed piece of pure-Python work: the machine's speed now.

    On a shared host the speed of one process drifts, by up to a factor
    of two over tens of seconds on a 2-vCPU cloud VM.  Dividing an
    operation's time by the probes on either side of it cancels most of
    that drift; a change to the package moves the operation's time and
    not the probe's.
    """
    t0 = time.perf_counter()
    seen: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        k = i & 255
        seen[k] = seen.get(k, 0) + (i ^ (i >> 3)).bit_count()
    return time.perf_counter() - t0


def import_package():
    """Import tmlat from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "tmlat" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import tmlat.cli
    import tmlat.matching
    import tmlat.matroid
    return tmlat


def clear_all_caches() -> None:
    """Empty every functools cache in the package, as a new process would."""
    for name, module in list(sys.modules.items()):
        if name == "tmlat" or name.startswith("tmlat."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Runner:
    """Runs cases one at a time and keeps one record per case.

    ``caches`` are the package's per-operation caches by name.  They are
    emptied before each case, so a repeated fixed instance cannot reuse
    another operation's results; their hits and misses are summed.
    """

    def __init__(self, caches: dict, deadline_s: float = DEADLINE_S):
        self.caches = caches
        self.deadline_s = deadline_s
        self.cache_stats = {name: [0, 0] for name in caches}

    def run(self, case) -> dict:
        for fn in self.caches.values():
            fn.cache_clear()
        speed = probe()
        status, outs = "ok", None
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outs = case.run()
        except Deadline:
            status = "late"
        except Exception as exc:  # a raise on valid input is a wrong result
            status = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.cache_stats[name][0] += info.hits
            self.cache_stats[name][1] += info.misses
        if status == "ok" and not case.check(outs):
            status = "wrong"
        return {"wall": wall, "cpu": cpu, "probe": speed, "status": status}

    def loop(self, cases, seconds: float, cycle: int) -> list[dict]:
        """Run cases until ``seconds`` have passed and a cycle is complete."""
        records = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(records) % cycle:
            records.append(self.run(next(cases)))
        return records


def traced_loop(cases, seconds: float, cycle: int, caches: dict):
    """Run each case untraced and traced, alternating which goes first.

    Returns the tracer, the runner of the traced runs and both record lists.
    """
    tracer = Tracer()
    plain, traced = Runner(caches), Runner(caches)
    plain_records, traced_records = [], []
    start = time.perf_counter()
    op = 0
    while time.perf_counter() - start < seconds or op % cycle:
        case = next(cases)
        for with_spans in ((False, True) if op % 2 == 0 else (True, False)):
            if not with_spans:
                plain_records.append(plain.run(case))
                continue
            tracer.op = op
            tracer.install()
            try:
                traced_records.append(traced.run(case))
            finally:
                tracer.uninstall()
        op += 1
    return tracer, traced, plain_records, traced_records


def set_up(workload, lib, seed: int, caches: dict, tracer=None) -> float:
    """Fresh caches, warm-up inputs, warm-up run; returns its wall time."""
    t0 = time.perf_counter()
    clear_all_caches()
    if tracer is not None:
        tracer.install()
    try:
        runner = Runner(caches)
        for case in workload.stream(seed, "warmup"):
            status = runner.run(case)["status"]
            if status != "ok":
                raise RuntimeError(f"warm-up operation failed: {status}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(records, setup_s: float, cycle: int) -> tuple[dict, dict]:
    """The user-facing figures of an untraced run, in ref-ms and as timed.

    An operation's ref-ms are its milliseconds divided by the mean of the
    probes just before and just after it.  Every cycle holds the same mix
    of inputs, so throughput and CPU cost are taken per cycle and the
    median cycle is reported.
    """
    probes = [r["probe"] * 1e3 for r in records]
    after = probes[1:] + probes[-1:]
    ref_ms = [(p + q) / 2 for p, q in zip(probes, after)]

    def figures(units) -> dict:
        walls = [r["wall"] / u for r, u in zip(records, units)]
        cpus = [r["cpu"] / u for r, u in zip(records, units)]
        ok = [r["status"] == "ok" for r in records]
        spans = range(0, len(records), cycle)
        return {"ops_per_s": statistics.median(
                    sum(ok[i:i + cycle]) / sum(walls[i:i + cycle]) for i in spans),
                "op_p50_ms": quantile(walls, 0.5) * 1e3,
                "op_p90_ms": quantile(walls, 0.9) * 1e3,
                "cpu_ms_per_op": statistics.median(
                    sum(cpus[i:i + cycle]) / cycle for i in spans) * 1e3}

    metrics = {"setup_s": setup_s, **figures(ref_ms),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "ok_ratio": sum(r["status"] == "ok" for r in records) / len(records)}
    timed = {**figures([1.0] * len(records)), "probe_ms": statistics.median(probes)}
    return metrics, timed


def per_layer(tracer: Tracer, runner: Runner, plain, traced, setup_tracer) -> dict:
    ops = len(traced)
    spans = tracer.summary()
    counters = tracer.counters
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = spans.get(name, [0, 0.0, 0.0])[2] / ops
    out["core.SubsetLattice.calls"] = spans.get("core.SubsetLattice", [0])[0] / ops
    out["matching.rank.calls"] = spans.get("matching.rank", [0])[0] / ops
    for name in PER_OP_COUNTS:
        out[name] = counters[name] / ops
    candidates = counters["extlattice.scan_candidates"]
    out["extlattice.scan_yield"] = (counters["extlattice.members"] / candidates
                                    if candidates else 0.0)
    calls = counters["matroid.transversal_calls"]
    out["matroid.witness_ratio"] = counters["matroid.witnesses"] / calls if calls else 0.0
    for name, (hits, misses) in runner.cache_stats.items():
        out[f"matching.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["verify.closed_family_table.self_s"] = setup_tracer.summary().get(
        "verify.closed_family_table", [0, 0.0, 0.0])[2]
    out["bench.tracing_overhead"] = (sum(r["wall"] for r in traced)
                                     / sum(r["wall"] for r in plain))
    out["failed_ratio"] = (sum(1 for r in plain + traced if r["status"] != "ok")
                           / (len(plain) + ops))
    return out


def environment(args) -> dict:
    """What identifies a run: the code, the interpreter, the machine, the seed.

    A checkout without git history still names its code by the hash of
    the package sources.
    """
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tmlat").glob("*.py")):
        source.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit,
            "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    lib = import_package()
    if lib is None:
        print(f"error: no tmlat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, _expire)

    # Captured before any tracing wraps them.
    caches = {name: getattr(lib.matching, name) for name in CACHES
              if hasattr(getattr(lib.matching, name, None), "cache_clear")}
    workload = workloads.WORKLOADS[args.workload](lib)
    setup_s = import_s + statistics.median(
        set_up(workload, lib, args.seed, caches) for _ in range(SETUP_REPEATS))
    gc.collect()

    cases = workload.stream(args.seed)
    if not args.trace:
        records = Runner(caches).loop(cases, args.seconds, len(workload.CYCLE))
        metrics, timed = end_to_end(records, setup_s, len(workload.CYCLE))
        units = END_TO_END
    else:
        tracer, runner, plain, traced = traced_loop(
            cases, args.seconds, len(workload.CYCLE), caches)
        setup_tracer = Tracer()
        set_up(workload, lib, args.seed, caches, setup_tracer)
        metrics = per_layer(tracer, runner, plain, traced, setup_tracer)
        units = PER_LAYER
        records = plain + traced
        timed = {}
    failures = [r["status"] for r in records if r["status"] != "ok"]
    correct = all(status == "late" for status in failures)
    report = {"env": environment(args), "attempted": len(records),
              "failed": len(failures), "failed_ratio": len(failures) / len(records),
              "failures": sorted(set(failures))[:10], "metrics": metrics,
              "as_timed": timed}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
