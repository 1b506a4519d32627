"""advclf benchmark: closed-loop CLI invocations on benchmark-generated inputs.

Usage:
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The repository root is the parent of this directory; the program runs from
its src/ tree and BENCHMARK.json there names the workloads and metrics. One
client runs invocations one after another (a closed loop), each a fresh
`python -m advclf` process, so interpreter start is part of every timing.
With --trace 0 the end-to-end metrics are reported; with --trace 1 traced
and untraced invocations alternate and the per-layer metrics come from the
traced ones (see perfbench/README.md). Human-readable lines come first; the
last stdout line is one JSON object with keys correct, attempted, failed
and metrics.
"""

import argparse
import ctypes
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, load_and_split  # noqa: E402

INVOCATION_TIMEOUT_S = 120.0
# Before each untraced invocation the loaders run for at least this long, so
# setup_s samples spread over the whole run as the invocations do.
SLICE_S = 0.5

# nn.forward calls per adversarial iteration: forwards under any of the step
# spans, over the calls of the span that runs once per iteration.
FORWARDS_PER_ITER = {
    "adversarial.forwards_per_iter": ("adversarial.discriminator_step", {
        "adversarial.generator_batch_weights", "adversarial.discriminator_step",
        "adversarial.generator_step"}),
    "graph.gen_forwards_per_iter": ("graph.graph_discriminator_step", {
        "graph.generator_pair_weights", "graph.graph_discriminator_step",
        "graph.graph_generator_step"}),
}
# Counts that one input and one version of the code must reproduce exactly.
REPEATABLE_COUNTS = (
    "nn.flops", "adversarial.forwards_per_iter", "graph.gen_forwards_per_iter",
    "graph.sample_accept_ratio",
)


# ---------------------------------------------------------------- machine


def machine_block():
    """Hardware and library facts that the timings depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


def _blas_threads():
    """OpenBLAS's own thread count, as numpy's bundled library reports it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = out.stdout.strip()
    return int(text) if text.isdigit() else None


# ---------------------------------------------------------------- invocations


class Spawner:
    """Runs invocations through spawner.py, so their peak RSS is their own."""

    def __init__(self):
        # its own process group, so close() can stop it and its invocation together
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)

    def invoke(self, cmd, env, stdout_path, stderr_path):
        """Run one process to completion; returns (exit code, wall seconds, peak RSS in MB)."""
        job = {"cmd": cmd, "env": env, "cwd": str(ROOT), "stdout": str(stdout_path),
               "stderr": str(stderr_path), "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited early")
        done = json.loads(line)
        return done["code"], done["elapsed"], done["maxrss_kb"] / 1024.0

    def close(self):
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _numbers_finite(value):
    if isinstance(value, dict):
        return all(_numbers_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_numbers_finite(v) for v in value)
    if value is None:
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_report(code, stdout_path, inp):
    """Return (report without wall_clock_sec or None, list of failed checks)."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        report = json.loads(Path(stdout_path).read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        return None, [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return None, ["report is not a JSON object"]
    problems = []
    for (section, key), want in inp.expected.items():
        got = report.get(section, {}).get(key)
        if got != want:
            problems.append(f"{section}.{key} = {got!r}, generated input has {want}")
    if not _numbers_finite(report):
        problems.append("report holds a non-finite or missing number")
    report.pop("wall_clock_sec", None)
    return report, problems


# ---------------------------------------------------------------- tracing


def analyse_spans(spans):
    """Flat per-layer values from spans with parent links.

    For each span name: .calls, .self_s (duration minus the time its child
    spans cover) and one value per recorded size; for each module: .self_s.
    """
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values = defaultdict(float)
    for i, (name, _, start, end, sizes) in enumerate(spans):
        self_s = end - start - child_time[i]
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += self_s
        values[f"{name.split('.')[0]}.self_s"] += self_s
        for key, value in (sizes or {}).items():
            values[f"{name}.{key}"] += value
    values["nn.flops"] = values["nn.forward.flops"] + values["nn.backward.flops"]
    for key, (per_iteration, steps) in FORWARDS_PER_ITER.items():
        iterations = values[f"{per_iteration}.calls"]
        forwards = sum(
            1 for name, parent, *_ in spans if name == "nn.forward" and _has_ancestor(spans, parent, steps)
        )
        values[key] = forwards / iterations if iterations else 0.0
    return values


def _has_ancestor(spans, index, names):
    while index >= 0:
        if spans[index][0] in names:
            return True
        index = spans[index][1]
    return False


# ---------------------------------------------------------------- workload run


def time_slice(fn, samples):
    """Call fn repeatedly for at least SLICE_S seconds, appending each call's seconds."""
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        if time.perf_counter() - started >= SLICE_S:
            return


def tail(values, higher_is_better):
    """The worst-side percentile with at least ten samples beyond it, else the extreme."""
    ordered = sorted(values, reverse=higher_is_better)
    n = len(ordered)
    if n > 10:
        share = 100.0 * (n - 10) / n
        return f"p{100.0 - share if higher_is_better else share:.0f}", ordered[n - 11]
    return ("min" if higher_is_better else "max"), ordered[-1]


def run_workload(workload, spec, seed, seconds, trace, workdir, spawner):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    input_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(workload.inputs_per_run)]
    inputs = [workload.make_input(s, workdir) for s in input_seeds]

    samples = defaultdict(list)  # metric name -> samples; one per call for setup_s, else per invocation
    traced = []  # per-layer values of each traced invocation
    first_report = {}
    problems = []
    attempted = failed = 0
    min_invocations = 3 if trace else len(inputs) + 1
    stdout_path, stderr_path = workdir / "stdout.json", workdir / "stderr.txt"
    spans_path = workdir / "spans.pickle"
    steps = []  # seconds of each loop step: set-up timing plus invocation
    started = time.perf_counter()
    # start another step only if a typical one still ends within --seconds
    while attempted < min_invocations or (
        time.perf_counter() - started + statistics.median(steps) <= seconds
    ):
        step_start = time.perf_counter()
        if trace:  # traced, untraced, traced, ... on the first input
            inp, is_traced = inputs[0], attempted % 2 == 0
        else:  # round robin; the first input repeats within the minimum
            inp, is_traced = inputs[attempted % len(inputs)], False
            time_slice(lambda: load_and_split(inp), samples["setup_s"])
        if is_traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *inp.argv]
        else:
            cmd = [sys.executable, "-m", "advclf", *inp.argv]
        attempted += 1
        code, elapsed, rss_mb = spawner.invoke(cmd, env, stdout_path, stderr_path)
        steps.append(time.perf_counter() - step_start)
        report, why = check_report(code, stdout_path, inp)
        if report is not None and report != first_report.setdefault(inp.seed, report):
            why.append("report differs from an earlier invocation on the same input")
        if why:
            failed += 1
            problems.append(f"input {inp.seed}{' traced' if is_traced else ''}: {'; '.join(why)}")
            err = stderr_path.read_text(encoding="utf-8", errors="replace").strip()
            if err:
                problems.append("  stderr: " + err.splitlines()[-1])
        elif is_traced:
            with open(spans_path, "rb") as fh:  # written by this benchmark's own tracer
                values = analyse_spans(pickle.load(fh))
            graph = report.get("graph")
            values["graph.sample_accept_ratio"] = (
                1.0 - (graph["n_nodes"] + 2 * graph["n_edges"]) / graph["n_nodes"] ** 2 if graph else 0.0
            )
            traced.append(values)
            samples["traced_run_s"].append(elapsed)
        else:
            samples["run_s"].append(elapsed)
            samples["samples_per_s"].append(workload.samples_per_invocation / elapsed)
            samples["peak_rss_mb"].append(rss_mb)

    for report in first_report.values():  # one per input: quality is a median over inputs
        section = report
        for key in workload.quality_path:
            section = section[key]
        samples["test_auc"].append(section["auc"])
        samples["test_accuracy"].append(section["accuracy"])

    for name in REPEATABLE_COUNTS:
        seen = {values[name] for values in traced}
        if len(seen) > 1:
            problems.append(f"self-check: {name} varies between invocations on one input: {sorted(seen)}")

    metrics = {}
    if trace and traced and samples["run_s"]:
        overhead = statistics.median(samples["traced_run_s"]) / statistics.median(samples["run_s"]) - 1.0
        for m in spec["per_layer"]:
            name = m["name"]
            value = overhead if name == "trace.overhead_frac" else statistics.median(v[name] for v in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
    elif not trace and samples["run_s"]:
        for m in spec["end_to_end"]:
            values = samples[m["name"]]
            label, tail_value = tail(values, m["better"] == "higher")
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"],
                                  "tail": label, "tail_value": tail_value, "n": len(values)}
        # throughput at the median run_s, the same invocation whichever way the count falls
        run = metrics["run_s"]
        metrics["samples_per_s"].update(
            value=workload.samples_per_invocation / run["value"], tail=f"at run_s {run['tail']}",
            tail_value=workload.samples_per_invocation / run["tail_value"], n=run["n"])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "inputs": [{"seed": i.seed, **i.sizes} for i in inputs],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": failed == 0 and not problems and bool(metrics),
        "samples": samples,
        "metrics": metrics,
    }


def print_summary(result):
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          "(closed loop: one client, one invocation at a time)")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for inp in result["inputs"]:
        print("input " + json.dumps(inp, sort_keys=True))
    for line in result["problems"]:
        print("FAILED " + line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted:.4f} ({failed} failed of {attempted} invocations)")
    for name, m in result["metrics"].items():
        if result["trace"]:
            note = "  (computed from the input, not measured)" if name == "graph.sample_accept_ratio" else ""
            print(f"{name:44s} {m['value']:>16.6g} {m['unit']}{note}")
        else:
            print(f"{name:14s} median {m['value']:.6g} {m['unit']}  "
                  f"{m['tail']} {m['tail_value']:.6g}  n={m['n']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its invocation and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "advclf" / "__init__.py").is_file():
        print(f"error: advclf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    machine = machine_block()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    results = []
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        spawner = Spawner()
        try:
            result = run_workload(WORKLOADS[name], spec, args.seed, args.seconds, args.trace, workdir, spawner)
        finally:
            spawner.close()
            shutil.rmtree(workdir, ignore_errors=True)
        result["machine"] = machine
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print_summary(result)
        results.append(result)

    if not all(r["metrics"] for r in results):
        print("error: no usable invocation; see the FAILED lines above", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
            for r in results for k, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
