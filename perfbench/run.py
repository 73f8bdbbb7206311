#!/usr/bin/env python3
"""Benchmark the softbudget command line, end to end and layer by layer.

One closed-loop client: a single process and thread calls
``softbudget.cli.main(argv)`` in-process, op after op, with BLAS threads
pinned to 1.  Each op is timed from the call until its artifacts are
written; its output is then checked outside the timed region.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save PATH]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--save PATH]
    python3 perfbench/run.py --compare OLD.json NEW.json

A workload run generates its config from the seed and measures in
SEGMENTS fresh processes, one after another, each for a share of
``--seconds``: one untimed warm-up pass, then whole passes over the op
list.  Set-up time (``--trace 0`` only) is sampled in fresh interpreters
between passes (``setup_s`` at a nominal reference speed, ``setup_wall_s``
as measured).  Latencies are reported twice: in seconds, and in units of
a fixed reference computation timed around every op (``*_ref``), which
cancels the drift in machine speed of a shared host; BENCHMARK.json bounds
the reference units.  With ``--trace 1`` passes alternate untraced and
traced; layer metrics come from the traced passes and
``trace.overhead_ratio`` compares the two kinds.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics of BENCHMARK.json under
``--trace 0`` and its per-layer metrics under ``--trace 1``.  The line
before it holds provenance and details (every command's median latency,
sample counts, failures, layers with no spans).  ``--all`` runs every
workload both ways in child processes and prints a table; ``--compare``
diffs two files written by ``--save``.  The program is imported from
``src/`` next to this directory; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEGMENTS = 3  # measuring processes per run: layout and allocator luck differ per process
SETUP_RUNS = 3  # at least this many set-up samples per segment
SETUP_INTERVAL_S = 2.5  # and one more after the first pass that ends this long after the last
CHILD_TIMEOUT_S = 600
# setup_s converts the set-up time in reference units back to seconds at this
# nominal reference time (the reference's time in the host's fast state), so
# that it does not drift with the host's speed; setup_wall_s is the raw median
REFERENCE_NOMINAL_S = 0.0035


# -- provenance ----------------------------------------------------------------


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "softbudget")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": seed,
    }


# -- one workload --------------------------------------------------------------


class SetupProbe:
    """Fresh interpreters that import softbudget.cli and load the workload config.

    Each sample is timed from spawn to exit and, like the ops, also divided
    by the mean of the reference times just before and after it.
    """

    def __init__(self, config_path: str, reference):
        code = (f"import sys; sys.path.insert(0, {SRC!r}); import softbudget.cli as cli; "
                f"cli.load_config({config_path!r})")
        self.argv = [sys.executable, "-c", code]
        self.reference = reference
        self.times: list = []
        self.relative: list = []
        subprocess.run(self.argv, check=True)  # fills the bytecode cache

    def sample(self) -> None:
        ref_before = self.reference.measure()
        # no timeout: with one, subprocess polls the child every 50 ms and quantizes the time
        start = time.perf_counter()
        subprocess.run(self.argv, check=True)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.relative.append(elapsed / (0.5 * (ref_before + self.reference.measure())))


class Reference:
    """A fixed ~4 ms computation whose speed tracks the host's, timed around every op.

    It is timed before the first op of a pass and after every op.  Dividing
    an op's latency by the mean of the two reference times around it gives
    the op's latency in reference units, which cancels most of the drift in
    machine speed that a shared host shows over seconds to minutes.  The mix
    follows where the ops spend their time: an interpreter loop over numpy
    scalars with list pushes and pops (like pool-adjacent-violators), floats
    formatted cell by cell into CSV lines, and a little vectorised numpy.
    Measured on this project's workloads, a mix without the first two parts
    tracked the interpreter-bound commands several times less well.
    """

    def __init__(self):
        import numpy

        self.np = numpy
        self.values = numpy.linspace(0.0, 1.0, 7_500)
        self.array = numpy.linspace(0.0, 1.0, 50_000)

    def _work(self) -> None:
        np, values = self.np, self.values
        means: list = []
        for i in range(values.size):
            means.append(float(values[i]))
            while len(means) > 1 and means[-1] < means[-2]:
                means.pop()
        lines = []
        for i in range(500):
            cells = []
            for v in (values[i], values[i + 1], True, values[i + 2], 3):
                if isinstance(v, (bool, np.bool_)):
                    cells.append("true" if v else "false")
                elif isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append("%.10g" % float(v))
            lines.append(",".join(cells))
        "\n".join(lines)
        np.sort(self.array[::-1])
        np.cumsum(self.array)
        np.exp(self.array)

    def measure(self) -> float:
        """Shorter of two back-to-back timings, so one interrupt does not count."""
        times = []
        for _ in range(2):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return min(times)


def run_pass(workload, config_path: str, work_dir: str, cli_main, reference, tracer, first_op: int) -> dict:
    """Run every op once; return raw and reference-unit latencies and failures."""
    state: dict = {}
    latencies = []
    relative = []
    failures = []
    ref_before = reference.measure()
    for i, op in enumerate(workload.ops):
        out_dir = os.path.join(work_dir, f"op{i}-{op.command}")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [op.command, "--config", config_path, "--out", out_dir, "--quiet"]
        if tracer is not None:
            tracer.begin_op(first_op + i)
        start = time.perf_counter()
        try:
            code = cli_main(argv) if tracer is None else tracer.call(f"cli.{op.command}", cli_main, argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
        ref_after = reference.measure()
        latencies.append((op.command, elapsed))
        relative.append((op.command, elapsed / (0.5 * (ref_before + ref_after))))
        ref_before = ref_after
        if code != 0:
            failures.append(f"{op.command} exited {code}")
            continue
        try:
            problem = op.check(out_dir, state)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problem = f"{op.command} output unreadable: {exc!r}"
        if problem is not None:
            failures.append(problem)
    return {"latencies": latencies, "relative": relative, "failures": failures,
            "total": sum(t for _, t in latencies), "total_ref": sum(t for _, t in relative)}


def measure_segment(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    """One measuring process: a warm-up pass, then passes until ``seconds`` elapse."""
    from softbudget.cli import main as cli_main
    from spans import Tracer, summarize
    from workloads import WORKLOADS, write_config

    workload = WORKLOADS[name]
    work_dir = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    reference = Reference()
    try:
        config_path = write_config(workload, seed, os.path.join(work_dir, "config"))
        setup = None if trace_on else SetupProbe(config_path, reference)
        run_pass(workload, config_path, work_dir, cli_main, reference, None, 0)  # warm-up, not counted
        passes = []
        deadline = time.perf_counter() + seconds
        last_setup = -SETUP_INTERVAL_S
        while time.perf_counter() < deadline or len(passes) < 2:
            tracer = Tracer() if trace_on and len(passes) % 2 == 1 else None
            if tracer is not None:
                tracer.install()
            try:
                result = run_pass(workload, config_path, work_dir, cli_main, reference, tracer,
                                  len(passes) * len(workload.ops))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                result["layers"] = summarize(tracer.spans, tracer.counters)
                result["spans"] = len(tracer.spans)
            passes.append(result)
            # spread set-up samples over the run, so they see the same machine states as the ops
            if setup is not None and time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
                setup.sample()
                last_setup = time.perf_counter()
        while setup is not None and len(setup.times) < SETUP_RUNS:
            setup.sample()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass
    return {"passes": passes,
            "setup": [] if setup is None else setup.times,
            "setup_relative": [] if setup is None else setup.relative,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _layer_metrics(traced: list, untraced: list) -> dict:
    from spans import ratio

    per_pass = [p["layers"] for p in traced]
    totals = {k: sum(p[k] for p in per_pass) for k in per_pass[0]}
    out = {k: statistics.median([p[k] for p in per_pass]) for k in totals}
    out["mechanism.iron_weights.pooled_ratio"] = ratio(
        totals["mechanism.iron_weights.pooled"], totals["mechanism.iron_weights.nodes"])
    out["mechanism.virtual_weight.repeat_ratio"] = ratio(
        totals["mechanism.virtual_weight.repeats"], totals["mechanism.virtual_weight.calls"])
    out["discretion.fixed_point.converged_ratio"] = ratio(
        totals["discretion.fixed_point.converged"], totals["discretion.fixed_point.calls"])
    out["trace.spans"] = statistics.median([p["spans"] for p in traced])
    out["trace.overhead_ratio"] = (statistics.median([p["total_ref"] for p in traced])
                                   / statistics.median([p["total_ref"] for p in untraced]) - 1.0)
    return out


def _by_command(passes: list, key: str) -> dict:
    out: dict = {}
    for p in passes:
        for command, value in p[key]:
            out.setdefault(command, []).append(value)
    return out


def _run_self(*args) -> list:
    """Run this script in a child process; return its stdout lines."""
    argv = [sys.executable, os.path.abspath(__file__), *map(str, args)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}: {done.stderr.strip()[-800:]}")
    return done.stdout.strip().splitlines()


def run_workload(name: str, seed: int, seconds: float, trace_on: bool, spec: dict) -> tuple:
    """Measure ``name`` in SEGMENTS fresh processes, one after another, and merge them."""
    from spans import zero_span_layers
    from workloads import WORKLOADS

    segments = [json.loads(_run_self("--segment", name, "--seed", seed, "--seconds", seconds / SEGMENTS,
                                     "--trace", int(trace_on))[-1])
                for _ in range(SEGMENTS)]
    passes = [p for s in segments for p in s["passes"]]
    untraced = [p for p in passes if "layers" not in p]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    raw = _by_command(untraced, "latencies")
    rel = _by_command(untraced, "relative")
    computed = {f"{c.replace('-', '_')}_s": statistics.median(v) for c, v in raw.items()}
    computed.update({f"{c.replace('-', '_')}_ref": statistics.median(v) for c, v in rel.items()})
    computed["pass_s"] = statistics.median([p["total"] for p in untraced])
    computed["pass_ref"] = statistics.median([p["total_ref"] for p in untraced])
    computed["ops_failed_ratio"] = len(failures) / attempted
    computed["peak_rss_mb"] = max(s["peak_rss_mb"] for s in segments)
    detail = {
        "workload": name,
        "passes": len(passes),
        "samples": {c: len(v) for c, v in raw.items()},
        "failures": sorted(set(failures)),
        "end_to_end": computed,
    }
    if trace_on:
        layers = _layer_metrics([p for p in passes if "layers" in p], untraced)
        detail["zero_span_layers"] = zero_span_layers(layers)
        detail["layers"] = layers  # every layer's .s, .self_s and .spans, with the counters
        wanted = spec["per_layer"]
        values = layers
    else:
        setup = [t for s in segments for t in s["setup"]]
        setup_relative = [t for s in segments for t in s["setup_relative"]]
        computed["setup_s"] = statistics.median(setup_relative) * REFERENCE_NOMINAL_S
        computed["setup_wall_s"] = statistics.median(setup)
        detail["setup_runs_s"] = setup
        wanted = spec["end_to_end"]
        values = computed
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and WORKLOADS[name].listed:
        raise RuntimeError(f"{name} measured no {', '.join(missing)}")
    # a workload outside BENCHMARK.json reports only the metrics its ops produce
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, detail


# -- all workloads, comparison ---------------------------------------------------


def _unit(name: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    # detail-only metrics: every command's latency and the failed-op share
    if name.endswith("_s"):
        return "s"
    return "ref" if name.endswith("_ref") else "ratio"


def _run_values(run: dict) -> dict:
    values = {k: v["value"] for k, v in run["result"]["metrics"].items()}
    if run["trace"] == 0:
        for k, v in run["detail"]["end_to_end"].items():
            values.setdefault(k, v)
    return values


def run_all(seed: int, seconds: float, spec: dict) -> dict:
    from workloads import WORKLOADS

    runs = []
    for name, workload in WORKLOADS.items():
        for trace_on in (0, 1):
            lines = _run_self("--workload", name, "--seed", seed, "--seconds", seconds, "--trace", trace_on)
            run = {"workload": name, "seed": seed, "trace": trace_on,
                   "result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}
            runs.append(run)
            res = run["result"]
            listed = "" if workload.listed else " (not in BENCHMARK.json)"
            print(f"== {name}{listed} --trace {trace_on}: correct={str(res['correct']).lower()} "
                  f"attempted={res['attempted']} failed={res['failed']} passes={run['detail']['passes']}")
            for failure in run["detail"]["failures"]:
                print(f"   failure: {failure}")
            for key, value in sorted(_run_values(run).items()):
                print(f"   {key:44s} {value:14.6g} {_unit(key, spec)}")
            if trace_on:
                print(f"   layers with no spans: {', '.join(run['detail']['zero_span_layers']) or 'none'}")
    return {"runs": runs}


def compare(old_path: str, new_path: str, spec: dict) -> int:
    with open(old_path, "r", encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old_runs = {(r["workload"], r["trace"]): r for r in old["runs"]}
    print(f"old: {old['provenance'].get('git_commit')} ({old['provenance']['source_sha256'][:12]})")
    print(f"new: {new['provenance'].get('git_commit')} ({new['provenance']['source_sha256'][:12]})")
    worse = 0
    for run in new["runs"]:
        key = (run["workload"], run["trace"])
        if key not in old_runs:
            print(f"== {run['workload']} --trace {run['trace']}: only in new")
            continue
        before, after = _run_values(old_runs[key]), _run_values(run)
        print(f"== {run['workload']} --trace {run['trace']}: failed "
              f"{old_runs[key]['result']['failed']} -> {run['result']['failed']}")
        for name in sorted(set(before) | set(after)):
            a, b = before.get(name), after.get(name)
            if a is None or b is None:
                print(f"   {name:44s} {'-' if a is None else f'{a:.6g}':>12s} -> "
                      f"{'-' if b is None else f'{b:.6g}':>12s}")
                continue
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                verdict = "WORSE" if sign * change > bounds[name]["bound"] else "ok"
                worse += verdict == "WORSE"
            print(f"   {name:44s} {a:12.6g} -> {b:12.6g} {_unit(name, spec):6s} {change:+8.1%} {verdict}")
    print(f"{worse} end-to-end metric(s) worse than their bound (single runs; see perfbench/README.md)")
    return 0


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="diff two --save files")
    mode.add_argument("--segment", help=argparse.SUPPRESS)  # one measuring process of --workload
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--save", metavar="PATH", help="also write provenance and results to PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "softbudget", "cli.py")) or not os.path.isfile(SPEC_PATH):
        print(f"perfbench: needs {SRC}/softbudget and {SPEC_PATH}", file=sys.stderr)
        return 2
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    if args.segment is not None:
        print(json.dumps(measure_segment(args.segment, args.seed, seconds, bool(args.trace))))
        return 0
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    doc = {"provenance": provenance(args.seed)}
    if args.all:
        print(json.dumps(doc["provenance"]))
        doc.update(run_all(args.seed, seconds, spec))
    else:
        result, detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
        doc["runs"] = [{"workload": args.workload, "seed": args.seed, "trace": args.trace,
                        "result": result, "detail": detail}]
        print(json.dumps({"provenance": doc["provenance"], "detail": detail}))
        print(json.dumps(result))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
