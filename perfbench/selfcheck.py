"""Self-check of the benchmark, on every workload shrunk to n <= 8.

    python3 perfbench/selfcheck.py

It shows that every metric named in BENCHMARK.json is emitted, that each
oracle rejects an injected wrong value, that the traced run's named spans
cover at least 90% of in-process time on every workload, that a child's
peak RSS does not depend on the order the children run in, and that the
benchmark refuses to run without the program's sources.
"""

import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

SMALL = workloads.workloads(small=True)
SEEDS = (0, 7)


def scratch():
    """A fresh directory inside the checkout."""
    run.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.WORK))


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def cli_output(workload, seed, tmp):
    """Output text of one in-process CLI invocation of ``workload``."""
    from spinchain import cli

    params = workloads.parameters(seed)
    out = tmp / f"{workload.name}-{seed}.out"
    code = quiet(cli.main, [*workload.argv(params), "--out", str(out)])
    if code != 0:
        raise AssertionError(f"{workload.name} exited {code}")
    return params, out.read_text()


class MetricsEmitted(unittest.TestCase):
    """Every workload emits exactly the metrics of BENCHMARK.json, correctly."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
        cls.units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        cls.results = {(w.name, trace): quiet(run.run_workload, w, 7, 0, trace)
                       for w in SMALL.values() for trace in (0, 1)}

    def test_every_metric_is_emitted_with_its_unit(self):
        for (name, trace), result in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(sorted(result["metrics"]), sorted(self.names[trace]))
                for metric, entry in result["metrics"].items():
                    self.assertEqual(entry["unit"], self.units[metric])
                    self.assertIsInstance(entry["value"], float)

    def test_every_run_is_correct(self):
        for (name, trace), result in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_named_spans_cover_in_process_time(self):
        for name in SMALL:
            metrics = self.results[(name, 1)]["metrics"]
            with self.subTest(workload=name):
                self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.9)
                self.assertEqual(metrics["trace.missing_spans"]["value"], 0.0)

    def test_end_to_end_metrics_are_never_zero(self):
        for name in SMALL:
            for metric, entry in self.results[(name, 0)]["metrics"].items():
                with self.subTest(workload=name, metric=metric):
                    self.assertGreater(entry["value"], 0.0)


class OraclesRejectWrongValues(unittest.TestCase):
    """Each oracle passes the CLI's real output and rejects one injected error."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = scratch()
        cls.outputs = {(name, seed): cli_output(w, seed, cls.tmp) for name, w in SMALL.items() for seed in SEEDS}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def assert_rejects(self, name, mutate):
        w = SMALL[name]
        for seed in SEEDS:
            params, text = self.outputs[(name, seed)]
            with self.subTest(workload=name, seed=seed):
                self.assertEqual(w.check(params, text), [])
                self.assertNotEqual(w.check(params, mutate(text)), [])

    def test_purity_sweep(self):
        def edit_row(text, index, column, value):
            lines = text.splitlines()
            rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
            cells = lines[rows[1 + index]].split(",")
            cells[column] = value(cells[column])
            lines[rows[1 + index]] = ",".join(cells)
            return "\n".join(lines) + "\n"

        def drop_row(text):
            lines = text.splitlines()
            return "\n".join(lines[:-1]) + "\n"

        def scale_sample(text):
            lines = text.splitlines()
            for i, line in enumerate(lines):
                cells = line.split(",")
                if not line.startswith("#") and cells[-1] == "0" and cells[1] not in ("", "eigenvalue"):
                    cells[1] = repr(1.01 * float(cells[1]))
                    lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"

        mutations = {
            "failed verdict": lambda t: t.replace("pass=True", "pass=False", 1),
            "row count": drop_row,
            "trace": lambda t: edit_row(t, 0, 1, lambda v: repr(float(v) + 1e-3)),
            "sum of squares": scale_sample,
            "entropy range": lambda t: edit_row(t, 0, 3, lambda v: "0.75"),
        }
        for label, mutate in mutations.items():
            with self.subTest(mutation=label):
                self.assert_rejects("invariant-sweep", mutate)

    def _json_mutations(self, name, section, keys, edit):
        for key in keys:
            def mutate(text, key=key):
                doc = json.loads(text)
                doc[section][-1] = edit(doc[section][-1], key)
                return json.dumps(doc)

            with self.subTest(value=key):
                self.assert_rejects(name, mutate)

    def test_exyz(self):
        def edit(report, key):
            if key == "count":
                report["count"] += 1
            else:
                k = int(key[1])
                m = report["moments"]
                m[k - 1] = m[k - 1] * (1 + 1e-6) if k % 2 == 0 else 1e-6
            return report

        for name in ("exyz-stream", "exyz-exact"):
            self._json_mutations(name, "reports", ("count", "m1", "m2", "m3", "m4"), edit)

    def test_dense_moments(self):
        def edit(entry, key):
            entry[key] *= 1 + 1e-6
            return entry

        self._json_mutations("dense-moments", "finite_n", ("m2", "m4"), edit)


class PeakRssPerChild(unittest.TestCase):
    """``os.wait4`` reads each child's own peak RSS, whatever ran before it."""

    BIG_MIB = 200
    BIG = ["-c", f"import numpy as np; a = np.ones({BIG_MIB} << 17); print(a.sum())"]
    SMALL_CHILD = ["-c", "pass"]

    def peaks(self, order, work):
        out = {}
        for name, args in order:
            _, _, rss = run.spawn([sys.executable, *args], work / "err")
            out[name] = rss
        return out

    def test_rss_independent_of_order(self):
        work = scratch()
        try:
            order = [("big", self.BIG), ("small", self.SMALL_CHILD)]
            first = self.peaks(order, work)
            second = self.peaks(order[::-1], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertGreater(first["big"], self.BIG_MIB)
        self.assertLess(first["small"], self.BIG_MIB / 2)
        self.assertAlmostEqual(first["small"], second["small"], delta=0.1 * second["small"])
        # the reading this replaces: the largest peak of any child reaped so far
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.assertGreater(children, self.BIG_MIB)

    def test_workload_rss_independent_of_order(self):
        def peaks(names):
            out = {}
            for name in names:
                work = scratch()
                try:
                    r = run.Run(SMALL[name], 0, work)
                    out[name] = quiet(r.invoke)[1]
                finally:
                    shutil.rmtree(work, ignore_errors=True)
            return out

        names = list(SMALL)
        forward, backward = peaks(names), peaks(names[::-1])
        for name in names:
            with self.subTest(workload=name):
                self.assertAlmostEqual(forward[name], backward[name], delta=0.1 * forward[name])


class TracerWrapsOnce(unittest.TestCase):
    """Each function gets one wrapper, installed wherever callers look it up."""

    def setUp(self):
        lib = types.ModuleType("perfbench_fake_lib")
        caller = types.ModuleType("perfbench_fake_caller")

        def leaf(x):
            return x + 1

        def outer(x):
            return lib.leaf(x) * 2

        class Box:
            @classmethod
            def make(cls, x):
                return lib.outer(x)

        lib.leaf, lib.outer, lib.Box = leaf, outer, Box
        caller.leaf = leaf
        sys.modules.update({lib.__name__: lib, caller.__name__: caller})
        self.lib, self.caller = lib, caller
        self.targets = (
            ("t.leaf", lib.__name__, "leaf", None),
            ("t.leaf", caller.__name__, "leaf", None),
            ("t.outer", lib.__name__, "outer", None),
            ("t.box", lib.__name__, "Box.make", None),
            ("t.gone", lib.__name__, "renamed_away", None),
        )

    def tearDown(self):
        for m in (self.lib, self.caller):
            sys.modules.pop(m.__name__, None)

    def test_wrappers(self):
        t = tracer.Tracer()
        t.install(self.targets)
        t.install(self.targets)
        self.assertIs(self.lib.leaf, self.caller.leaf)
        self.assertEqual(self.lib.outer(1), 4)
        self.assertEqual(self.lib.Box.make(1), 4)
        self.assertEqual(self.caller.leaf(1), 2)
        doc = t.document(0)
        stats = tracer.SpanStats(doc)
        self.assertEqual(stats.calls["t.leaf"], 3)
        self.assertEqual(stats.calls["t.box"], 1)
        self.assertEqual(stats.children["t.outer"], 2)
        self.assertEqual(stats.missing(), ["t.gone"])
        self.assertIn(f"{self.lib.__name__}.renamed_away", doc["unresolved"])
        self.assertLessEqual(stats.self_time("t.outer"), stats.total("t.outer"))


class RefusesWithoutSources(unittest.TestCase):
    """Without ``src/`` the benchmark exits non-zero and prints no result."""

    def test_no_sources(self):
        bare = scratch()
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "exyz-exact",
                                   "--seed", "0", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


def tearDownModule():
    with contextlib.suppress(OSError):
        run.WORK.rmdir()


if __name__ == "__main__":
    unittest.main()
