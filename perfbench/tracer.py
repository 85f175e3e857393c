"""Traced run of the spinchain CLI, and the per-layer metrics taken from it.

Run as a script, it installs wrappers around the public functions of each
spinchain module, runs ``spinchain.cli.main(argv)`` in this process and
writes the recorded spans to a JSON file:

    python3 perfbench/tracer.py SPANS.json purity-sweep --n 8 --out out.csv

Nothing under ``src/`` changes: the wrappers are installed from here, on the
names the callers look up at call time (module globals and class
attributes). A span is ``(name, start, end, parent, peak RSS before, peak RSS
after)``; spans stay in memory and are written out when ``main`` returns.
"""

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

import numpy as np


def _count_terms(counters, args, result):
    h = args[0]
    counters["terms"] += h.num_terms
    counters["xmask_groups"] += len(np.unique(h.xs))


def _to_dense(counters, args, result):
    _count_terms(counters, args, result)
    counters["dense_bytes"] += result.nbytes


def _sectors(counters, args, result):
    counters["sectors"] += len(result)
    counters["max_sector_dim"] = max([counters["max_sector_dim"]] + [s.dim for s in result])


def _dense_basis(counters, args, result):
    counters["dense_basis_bytes"] += result.nbytes


def _linalg(counters, args, result):
    a = np.asarray(args[0])
    counters["linalg_dim3"] += a.shape[-1] ** 3 * (a.size // a.shape[-1] ** 2)


def _states(counters, args, result):
    counters["states"] += len(result.per_state)


def _values(counters, args, result):
    counters["values"] += result


def _collected(counters, args, result):
    counters["collector_bytes"] += np.asarray(args[1]).nbytes


#: (span name, module, attribute, counter hook). A function looked up under
#: several names is wrapped once and the same wrapper installed at each name.
TARGETS = (
    ("cli.main", "spinchain.cli", "main", None),
    ("cli.parse", "spinchain.cli", "build_parser", None),
    ("cli.parse", "argparse", "ArgumentParser.parse_args", None),
    ("cli.write", "spinchain.cli", "_write_csv", None),
    ("cli.write", "spinchain.cli", "_write_json", None),
    ("cli.write", "spinchain.cli", "_spectrum_csv", None),
    ("hamiltonians.build", "spinchain.hamiltonians", "sample_random", None),
    ("hamiltonians.build", "spinchain.hamiltonians", "build_ba", None),
    ("hamiltonians.build", "spinchain.hamiltonians", "build_exyz", None),
    ("hamiltonians.to_dense", "spinchain.hamiltonians", "OperatorSum.to_dense", _to_dense),
    ("hamiltonians.to_sparse", "spinchain.hamiltonians", "OperatorSum.to_sparse", _count_terms),
    ("spectra.commutator_norm", "spinchain.symmetry", "commutator_norm", None),
    ("spectra.commutator_norm", "spinchain.spectra", "commutator_norm", None),
    ("spectra.diagonalize_dense", "spinchain.spectra", "diagonalize_dense", None),
    ("spectra.diagonalize_dense", "spinchain.dos", "diagonalize_dense", None),
    ("spectra.diagonalize_dense", "spinchain.free_fermion", "diagonalize_dense", None),
    ("symmetry.joint_eigenbasis", "spinchain.symmetry", "joint_eigenbasis", None),
    ("symmetry.build_momentum_basis", "spinchain.symmetry", "build_momentum_basis", _sectors),
    ("symmetry.dense_basis", "spinchain.symmetry", "MomentumSector.dense_basis", _dense_basis),
    ("linalg.eigh", "numpy.linalg", "eigh", _linalg),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh", _linalg),
    ("entanglement.average_purity", "spinchain.entanglement", "average_purity", _states),
    ("free_fermion.enumerate_spectrum", "spinchain.free_fermion", "enumerate_spectrum", _values),
    ("dos.fanout", "spinchain.dos", "MultiConsumer.__call__", None),
    ("dos.histogram_acc", "spinchain.dos", "HistogramAccumulator.__call__", None),
    ("dos.moment_acc", "spinchain.dos", "MomentAccumulator.__call__", None),
    ("dos.collector", "spinchain.dos", "SpectrumCollector.__call__", _collected),
    ("dos.collector", "spinchain.dos", "SpectrumCollector.values", None),
    ("dos.from_values", "spinchain.dos", "EmpiricalDistribution.from_values", None),
    ("dos.ks_distance", "spinchain.dos", "ks_distance", None),
    ("pauli.from_sites", "spinchain.pauli", "PauliString.from_sites", None),
)


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder; :meth:`install` puts its wrappers in place."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        self.unresolved = []
        self._wrappers = {}

    def _wrapper(self, name, fn, hook):
        if getattr(fn, "__perfbench_span__", None) is not None:
            return fn
        if id(fn) in self._wrappers:
            wrapper = self._wrappers[id(fn)]
            if self.names[wrapper.__perfbench_span__] != name:
                raise ValueError(f"{fn.__qualname__} is traced as two spans")
            return wrapper
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, _peak_rss_mib(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[5] = _peak_rss_mib()
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper.__perfbench_span__ = name_id
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target; a target that no longer exists is recorded, not fatal."""
        for name, module, attr, hook in targets:
            if name not in self.names:
                self.names.append(name)
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(f"{module}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self._wrapper(name, raw.__func__, hook)))
            elif callable(raw):
                setattr(owner, leaf, self._wrapper(name, raw, hook))
            else:
                self.unresolved.append(f"{module}.{attr}")

    def document(self, exit_code):
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
            "unresolved": self.unresolved,
            "exit_code": exit_code,
        }


class SpanStats:
    """Totals, self times, calls and peak-RSS rises per span name of one traced run.

    Self time is a span's duration minus the durations of its direct
    children. A layer's RSS rise sums ``after - before`` of the process's
    peak RSS over the layer's outermost spans, those whose parent belongs to
    another layer.
    """

    def __init__(self, doc):
        names, spans = doc["names"], doc["spans"]
        self.counters = defaultdict(int, doc["counters"])
        self.names = names
        self._total = defaultdict(float)
        self._self = defaultdict(float)
        self.calls = defaultdict(int)
        self.children = defaultdict(int)
        self._rss = defaultdict(float)
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (nid, start, end, parent, rss0, rss1) in enumerate(spans):
            name = names[nid]
            self._total[name] += end - start
            self._self[name] += end - start - child_time[i]
            self.calls[name] += 1
            parent_name = names[spans[parent][0]] if parent >= 0 else ""
            if parent >= 0:
                self.children[parent_name] += 1
            layer = name.split(".")[0]
            if parent_name.split(".")[0] != layer:
                self._rss[layer] += rss1 - rss0

    def total(self, name):
        return self._total[name]

    def self_time(self, name):
        return self._self[name]

    def rss_rise(self, layer):
        return self._rss[layer]

    def missing(self):
        return [name for name in self.names if self.calls[name] == 0]


def _share(s, names):
    in_process = s.total("cli.main")
    return sum(s.total(n) for n in names) / in_process if in_process else 0.0


def _coverage(s):
    """Share of in-process time inside a named span below ``cli.main``."""
    in_process = s.total("cli.main")
    return 1.0 - s.self_time("cli.main") / in_process if in_process else 0.0


#: per-layer metrics of one traced run: (name, unit, value). "self" times
#: exclude child spans; bytes are computed from array shapes, not measured.
#: The end-to-end figure each layer should move:
#:   hamiltonians, symmetry: run_s and peak_rss_mib on invariant-sweep
#:   spectra: run_s on invariant-sweep and dense-moments
#:   linalg: run_s on dense-moments (~99% of it) and invariant-sweep (~8%)
#:   entanglement, cli: run_s on invariant-sweep
#:   free_fermion, dos: eigvals_per_s on exyz-stream; run_s and peak_rss_mib on exyz-exact
#:   pauli: nothing; the Pauli-string constructors are the control
LAYER_METRICS = (
    ("hamiltonians.build_s", "s", lambda s: s.total("hamiltonians.build")),
    ("hamiltonians.to_dense_s", "s", lambda s: s.total("hamiltonians.to_dense")),
    ("hamiltonians.to_sparse_s", "s", lambda s: s.total("hamiltonians.to_sparse")),
    ("hamiltonians.dense_bytes", "B", lambda s: s.counters["dense_bytes"]),
    ("hamiltonians.terms", "count", lambda s: s.counters["terms"]),
    ("hamiltonians.xmask_groups", "count", lambda s: s.counters["xmask_groups"]),
    ("spectra.commutator_norm_s", "s", lambda s: s.self_time("spectra.commutator_norm")),
    ("spectra.diagonalize_dense_s", "s", lambda s: s.self_time("spectra.diagonalize_dense")),
    ("symmetry.joint_eigenbasis_s", "s", lambda s: s.self_time("symmetry.joint_eigenbasis")),
    ("symmetry.dense_basis_s", "s", lambda s: s.total("symmetry.dense_basis")),
    ("symmetry.dense_basis_bytes", "B", lambda s: s.counters["dense_basis_bytes"]),
    ("symmetry.build_momentum_basis_s", "s", lambda s: s.total("symmetry.build_momentum_basis")),
    ("symmetry.sectors", "count", lambda s: s.counters["sectors"]),
    ("symmetry.max_sector_dim", "count", lambda s: s.counters["max_sector_dim"]),
    ("symmetry.rss_raise_mib", "MiB", lambda s: s.rss_rise("symmetry")),
    ("linalg.eigh_s", "s", lambda s: s.total("linalg.eigh")),
    ("linalg.eigvalsh_s", "s", lambda s: s.total("linalg.eigvalsh")),
    ("linalg.calls", "count", lambda s: s.calls["linalg.eigh"] + s.calls["linalg.eigvalsh"]),
    ("linalg.dim3_sum", "count", lambda s: s.counters["linalg_dim3"]),
    ("linalg.share", "fraction", lambda s: _share(s, ("linalg.eigh", "linalg.eigvalsh"))),
    ("entanglement.average_purity_s", "s", lambda s: s.total("entanglement.average_purity")),
    ("entanglement.states", "count", lambda s: s.counters["states"]),
    ("free_fermion.enumerate_spectrum_s", "s", lambda s: s.self_time("free_fermion.enumerate_spectrum")),
    ("free_fermion.values", "count", lambda s: s.counters["values"]),
    ("free_fermion.chunks", "count", lambda s: s.children["free_fermion.enumerate_spectrum"]),
    ("dos.histogram_acc_s", "s", lambda s: s.total("dos.histogram_acc")),
    ("dos.moment_acc_s", "s", lambda s: s.total("dos.moment_acc")),
    ("dos.collector_s", "s", lambda s: s.total("dos.collector")),
    ("dos.collector_bytes", "B", lambda s: s.counters["collector_bytes"]),
    ("dos.from_values_s", "s", lambda s: s.self_time("dos.from_values")),
    ("dos.ks_distance_s", "s", lambda s: s.total("dos.ks_distance")),
    ("dos.rss_raise_mib", "MiB", lambda s: s.rss_rise("dos")),
    ("cli.write_s", "s", lambda s: s.total("cli.write")),
    ("cli.parse_s", "s", lambda s: s.total("cli.parse")),
    ("cli.main_self_s", "s", lambda s: s.self_time("cli.main")),
    ("pauli.strings_built", "count", lambda s: s.calls["pauli.from_sites"]),
    ("pauli.from_sites_s", "s", lambda s: s.total("pauli.from_sites")),
    ("trace.in_process_s", "s", lambda s: s.total("cli.main")),
    ("trace.coverage", "fraction", _coverage),
)


def layer_metrics(stats):
    """``{name: value}`` of every entry of :data:`LAYER_METRICS` for one traced run."""
    return {name: float(value(stats)) for name, _, value in LAYER_METRICS}


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from spinchain import cli

    code = None
    try:
        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.document(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
