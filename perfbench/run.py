"""Benchmark of the spinchain CLI: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload invariant-sweep --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32    # one row per workload

``--trace 0`` times fresh ``python3 -m spinchain.cli`` processes, back to
back, for ``--seconds``. It reports the medians of ``run_s`` (spawn to exit),
``setup_s`` (interpreter start, imports and argument parsing, from probe
processes that stop before the first layer call), ``eigvals_per_s`` and
``peak_rss_mib`` (each child's own peak, from ``os.wait4``).

``--trace 1`` alternates an untraced run with a traced run
(``perfbench/tracer.py``) and reports the per-layer metrics of the traced
runs, medians over runs, and the tracing overhead.

Every output is checked by the workload's oracle; a run that exits non-zero
or fails its oracle counts as failed. Report lines come first; the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np
from tracer import LAYER_METRICS, SpanStats, layer_metrics
from workloads import parameters, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: setup probes per run, after one untimed warm-up probe
SETUP_PROBES = 5
#: BLAS threads of every child: the CPUs this process may run on
BLAS_THREADS = len(os.sched_getaffinity(0))

PROBE = (
    "import sys, time\n"
    "from spinchain import cli\n"
    "cli.build_parser().parse_args(sys.argv[1:])\n"
    "print(repr(time.perf_counter()))\n"
)

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("eigvals_per_s", "1/s"), ("peak_rss_mib", "MiB"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cmd, stderr_path):
    """Run ``cmd`` to completion: ``(exit code, wall seconds, the child's own peak RSS in MiB)``.

    ``os.wait4`` returns the resource usage of that child alone, unlike
    ``RUSAGE_CHILDREN``, which keeps the largest peak of every child reaped.
    """
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_seconds(argv):
    """Spawn-to-ready time of a process that imports the CLI and parses ``argv``."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=ROOT, env=child_env(),
                         stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - start


class Run:
    """Invocations of one workload at one seed, with their oracle verdicts."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.params = parameters(seed)
        self.argv = workload.argv(self.params)
        self.work = work
        self.attempted = 0
        self.failed = 0

    def invoke(self, traced=False):
        """One invocation; returns ``(wall s, peak RSS MiB, output path, spans path or None)``."""
        k = self.attempted
        self.attempted += 1
        out = self.work / f"out{k}"
        spans = self.work / f"spans{k}.json" if traced else None
        head = [str(HERE / "tracer.py"), str(spans)] if traced else ["-m", "spinchain.cli"]
        cmd = [sys.executable, *head, *self.argv, "--out", str(out)]
        code, wall, rss = spawn(cmd, self.work / f"err{k}")
        errors = [f"exit code {code}: {(self.work / f'err{k}').read_text().strip()[-500:]}"] if code else []
        if not errors:
            try:
                errors = self.workload.check(self.params, out.read_text())
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if errors:
            self.failed += 1
            for e in errors:
                print(f"FAILED {self.workload.name} invocation {k}: {e}")
        return wall, rss, out, spans


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name, unit, values):
    """Print one metric with median, quartiles and sample count; return the median."""
    med = statistics.median(values)
    lo, hi = _quartiles(values)
    print(f"  {name:36s} {med:14.6g} {unit:8s} (q1 {lo:.6g}, q3 {hi:.6g}, n={len(values)})")
    return med


def _keep_going(start, seconds, walls):
    """Another invocation fits in the run if the median one so far does."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure(run, seconds):
    """``--trace 0``: end-to-end metrics from untraced CLI processes."""
    start = time.perf_counter()
    setup_seconds(run.argv)  # warm-up: bytecode and page caches
    setups = [setup_seconds(run.argv) for _ in range(SETUP_PROBES)]
    walls, rss = [], []
    while True:
        wall, peak, out, _ = run.invoke()
        out.unlink(missing_ok=True)
        walls.append(wall)
        rss.append(peak)
        if not _keep_going(start, seconds, walls):
            break
    rates = [run.workload.eigenvalues / w for w in walls]
    metrics = {}
    for (name, unit), values in zip(END_TO_END, (walls, setups, rates, rss)):
        metrics[name] = {"value": report(name, unit, values), "unit": unit}
    return metrics


def measure_traced(run, seconds):
    """``--trace 1``: per-layer metrics from traced runs, each paired with an untraced one."""
    start = time.perf_counter()
    plain, traced, per_run, missing = [], [], [], set()
    while True:
        plain.append(run.invoke()[0])
        wall, _, out, spans = run.invoke(traced=True)
        traced.append(wall)
        if spans.exists():
            stats = SpanStats(json.loads(spans.read_text()))
            values = layer_metrics(stats)
            values["cli.output_bytes"] = float(out.stat().st_size) if out.exists() else 0.0
            absent = set(stats.missing())
            missing |= absent
            values["trace.missing_spans"] = float(len(absent & set(run.workload.spans)))
            per_run.append(values)
        if not _keep_going(start, seconds, [p + t for p, t in zip(plain, traced)]):
            break
    if not per_run:
        return {}
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    units.update({"cli.output_bytes": "B", "trace.missing_spans": "count", "trace.overhead_s": "s"})
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for name in sorted(units):
        values = [overhead] if name == "trace.overhead_s" else [v[name] for v in per_run]
        metrics[name] = {"value": report(name, units[name], values), "unit": units[name]}
    expected = sorted(missing & set(run.workload.spans))
    print(f"  spans with no calls: {', '.join(sorted(missing)) or 'none'}")
    print(f"  missing (expected on this workload, no calls): {', '.join(expected) or 'none'}")
    return metrics


def git_sha():
    """The checkout's commit from ``.git``, read without running git; ``unknown`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    """What the result depends on besides the code: versions, BLAS threads, CPUs and free memory."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem = "unknown"
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                mem = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "mem_available_mib": mem,
    }


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the result object of the last output line."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = Run(workload, seed, work)
        print(f"workload {workload.name} seed {seed} trace {trace}: spinchain {' '.join(run.argv)}")
        metrics = (measure_traced if trace else measure)(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"  failed_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    return {"correct": run.failed == 0 and bool(metrics), "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None):
    if not (SRC / "spinchain" / "cli.py").is_file():
        print(f"error: no spinchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*table, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    if args.workload != "all":
        print(json.dumps(run_workload(table[args.workload], args.seed, args.seconds, args.trace)))
        return 0
    results = {name: run_workload(w, args.seed, args.seconds, args.trace) for name, w in table.items()}
    if not args.trace:
        print(f"{'workload':16s} {'run_s':>10s} {'setup_s':>10s} {'eigvals_per_s':>14s} "
              f"{'peak_rss_mib':>13s} {'failed_frac':>12s}")
        for name, r in results.items():
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print(f"{name:16s} {m['run_s']:10.4f} {m['setup_s']:10.4f} {m['eigvals_per_s']:14.6g} "
                  f"{m['peak_rss_mib']:13.1f} {r['failed'] / r['attempted']:12.4g}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
