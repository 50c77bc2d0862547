"""Run one nelsonlab benchmark workload and print its metrics.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the same checkout, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A fuller record (provenance, timing summaries, every
failed gate and, when tracing, every span) is written to
``benches/out/<workload>-seed<N>-trace<T>.json``.

Timed run (``--trace 0``): set-up is timed in fresh interpreters, then one
untimed warm-up pass lets lazy imports and allocator growth settle, then
passes repeat until the next one would overrun ``--seconds``.  Every pass is
gated; ``wall_s`` is the median over passes whose gates all held.

Traced run (``--trace 1``): after the warm-up, half of ``--seconds`` runs
untraced passes and half runs passes with spans around every call into a
nelsonlab layer; the difference of their medians is the tracing overhead.
A replay then times the parts of an Euler-Maruyama step and single
commutators on the run's own inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = {"full": 5, "smoke": 1}
WARMUP_PASSES = {"full": 1, "smoke": 0}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke shrinks every workload for the "
                         "benchmark's own tests")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def cap_threads() -> int:
    """Cap BLAS and OpenMP pools at the usable cores; must run before numpy
    is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl, args, cap: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "thread_cap": cap,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "sizes": wl.SIZES[args.size],
    }


def time_setup(args, n: int) -> list[float]:
    """Wall time of fresh interpreters that import and run the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--size", args.size]
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        out.append(time.perf_counter() - t0)
    return out


class Passes:
    """Runs gated passes of one workload and keeps the op accounting."""

    def __init__(self, wl, st):
        self.wl = wl
        self.st = st
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.last_ops: list = []
        self.last_out = None

    def record(self, ops) -> bool:
        self.attempted += len(ops)
        bad = [op for op in ops if not op.passed]
        self.failed += len(bad)
        self.failures += [vars(op) for op in bad]
        self.last_ops = ops
        return not bad

    def one(self, tr) -> tuple[float, bool]:
        from nelsonlab import NelsonlabError
        from workloads import Op
        self.last_out = None
        t0 = time.perf_counter()
        try:
            out = self.wl.body(self.st, tr)
        except NelsonlabError as exc:
            elapsed = time.perf_counter() - t0
            return elapsed, self.record([Op("raised", repr(exc), "none",
                                            False)])
        elapsed = time.perf_counter() - t0
        self.last_out = out
        return elapsed, self.record(self.wl.gates(self.st, out))

    def repeat(self, tr, budget: float, label: str = "") -> dict:
        """Passes until the next would end after ``budget`` seconds (at
        least one); returns all pass times and those of passes that held."""
        times, good = [], []
        start = time.perf_counter()
        while True:
            tr.trace = f"{label}{len(times)}"
            elapsed, ok = self.one(tr)
            times.append(elapsed)
            if ok:
                good.append(elapsed)
            if time.perf_counter() - start + elapsed > budget:
                return {"all": times, "ok": good}


def wall(t: dict) -> float:
    return statistics.median(t["ok"] or t["all"])


def run(wl, args, cap: int, spec: dict) -> tuple[dict, dict]:
    from tracing import NullTracer, Tracer, duration, summarize
    from workloads import COMPUTED, layer_metrics

    setup_times = [] if args.trace else time_setup(args,
                                                   SETUP_PROBES[args.size])
    tr = Tracer() if args.trace else NullTracer()
    st = wl.setup(args.seed, args.size, tr)
    passes = Passes(wl, st)
    untraced = NullTracer()
    for _ in range(WARMUP_PASSES[args.size]):
        passes.one(untraced)
    detail = {"provenance": provenance(wl, args, cap)}
    if not args.trace:
        t = passes.repeat(untraced, args.seconds)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": wall(t), "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": rss_kib * 1024 / 1e6}
        detail["timings"] = {"wall_s": summarize(t["ok"]),
                             "wall_s_all_passes": t["all"],
                             "setup_s": summarize(setup_times)}
        ok = bool(t["ok"])
    else:
        t_plain = passes.repeat(untraced, args.seconds / 2)
        t_traced = passes.repeat(tr, args.seconds / 2, label="pass")
        out = passes.last_out
        tr.trace = "replay"
        replayed, ops = wl.replay(st, out, tr) if out else ({}, [])
        passes.record(ops)
        values = layer_metrics(tr, out or {"counters": {}}, replayed)
        values["trace_overhead_s"] = wall(t_traced) - wall(t_plain)
        detail["timings"] = {"untraced_wall_s": summarize(t_plain["ok"]),
                             "traced_wall_s": summarize(t_traced["ok"]),
                             "spans": {name: summarize(
                                 [duration(s) for s in tr.find(name)])
                                 for name in {s["name"] for s in tr.spans}},
                             "self_time": tr.self_times()}
        detail["computed_metrics"] = COMPUTED
        detail["spans"] = tr.to_records()
        ok = bool(t_plain["ok"] and t_traced["ok"])
    kind = "per_layer" if args.trace else "end_to_end"
    line = {"correct": ok and passes.failed == 0,
            "attempted": passes.attempted, "failed": passes.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in spec[kind]}}
    detail.update(result=line, all_values=values,
                  ops_last_pass=[vars(op) for op in passes.last_ops],
                  failures=passes.failures)
    return line, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    cap = cap_threads()
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "nelsonlab" / "__init__.py").is_file():
        print(f"nelsonlab sources not found under {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"{spec_path} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    from workloads import WORKLOADS
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        from tracing import NullTracer
        wl.setup(args.seed, args.size, NullTracer())
        return 0
    line, detail = run(wl, args, cap, spec)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=_jsonable) + "\n")
    print(json.dumps(line))
    return 0


def _jsonable(obj):
    import numpy as np
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


if __name__ == "__main__":
    sys.exit(main())
