"""Span recorder for the traced run, kept in the benchmark's own files.

Every public function named in ``LAYERS`` is wrapped, for the duration of
the traced pass, in each ``killingtensors`` module namespace that holds it
(``nullspace`` is imported by name into three modules, for example); methods
are wrapped on the class that defines them.  A wrapped call records one span:
name, start, end and parent, while the recorder is ``active``: the worker
switches it on only around an op's own call, so the benchmark's input and
output checks leave no spans.  Spans stay in memory and are written out
once, when the run ends.  A name the package no longer defines is reported as
absent, not as an error.

Per-layer metrics derived from the spans:

* ``<name>.calls`` and ``<name>.self_s``: self time is the span's duration
  minus the durations of its direct child spans.
* size counts gathered at the same boundaries (``sym_mul.terms_out``,
  ``rref.cells`` and ``rref.rank_sum``, ``killing_space_bruteforce.columns``,
  ``decompose.factors``, ``verify_certificate.precision_digits_*``).
* ``killingfields.cache_hit_ratio`` = 1 - sampled ``omega_generator`` calls
  inside ``verify_certificate`` / (samples x factor slots of the verified
  certificates).
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
import time
from array import array

# metric prefix -> (module, attribute path, size-count hook name or None)
LAYERS = {
    "tensors.sym_mul": ("tensors", "sym_mul", "sym_mul"),
    "tensors.apply_derivation": ("tensors", "apply_derivation", None),
    "tensors.act_group": ("tensors", "act_group", None),
    "tensors.exp_action": ("tensors", "exp_action", None),
    "exactlinalg.rref": ("exactlinalg", "rref", "rref"),
    "exactlinalg.nullspace": ("exactlinalg", "nullspace", None),
    "exactlinalg.determinant": ("exactlinalg", "determinant", None),
    "liealgebra.killing_space_bruteforce":
        ("liealgebra", "MetricLieAlgebra.killing_space_bruteforce", "bruteforce"),
    "liealgebra.killing_operator": ("liealgebra", "MetricLieAlgebra.killing_operator", None),
    "liealgebra.MetricLieAlgebra.__init__": ("liealgebra", "MetricLieAlgebra.__init__", None),
    "almostabelian.layer_decomposition":
        ("almostabelian", "AlmostAbelianAlgebra.layer_decomposition", None),
    "almostabelian.is_killing_structured":
        ("almostabelian", "AlmostAbelianAlgebra.is_killing_structured", None),
    "almostabelian.derivation_kernel":
        ("almostabelian", "AlmostAbelianAlgebra.derivation_kernel", None),
    "almostabelian.killing_space_structured":
        ("almostabelian", "AlmostAbelianAlgebra.killing_space_structured", None),
    "almostabelian.killing_dimension":
        ("almostabelian", "AlmostAbelianAlgebra.killing_dimension", None),
    "killingfields.decompose": ("killingfields", "decompose", "decompose"),
    "killingfields.verify_certificate": ("killingfields", "verify_certificate", "verify"),
    "killingfields.omega_tensor": ("killingfields", "omega_tensor", None),
    "killingfields.omega_generator": ("killingfields", "omega_generator", "omega_generator"),
    "killingfields.omega_right": ("killingfields", "omega_right", None),
    "killingfields.omega_derivation": ("killingfields", "omega_derivation", None),
    "killingfields.omega_derivation_matrix":
        ("killingfields", "omega_derivation_matrix", None),
    "killingfields.skew_derivations": ("killingfields", "skew_derivations", None),
    "curvature.classify": ("curvature", "classify", None),
    "curvature.metric_obstruction": ("curvature", "metric_obstruction", None),
    "curvature.flat_metric_certificate": ("curvature", "flat_metric_certificate", None),
    "cli.killing-basis": ("cli", "cmd_killing_basis", None),
    "cli.decompose": ("cli", "cmd_decompose", None),
    "cli.verify": ("cli", "cmd_verify", None),
    "cli.curvature": ("cli", "cmd_curvature", None),
    "cli.derivations": ("cli", "cmd_derivations", None),
    "cli.omega-sample": ("cli", "cmd_omega_sample", None),
}
# the file formats are traced as two groups: every *_from_dict and every *_to_dict
FORMAT_GROUPS = {
    "fileformats.parse": ("algebra_from_dict", "tensor_from_dict", "certificate_from_dict"),
    "fileformats.serialize": ("algebra_to_dict", "tensor_to_dict", "numeric_tensor_to_dict",
                              "certificate_to_dict", "killing_space_to_dict", "check_to_dict"),
}
# counts gathered at the boundaries, beside each layer's calls and self time
SIZE_COUNTS = ("tensors.sym_mul.terms_out", "exactlinalg.rref.cells",
               "exactlinalg.rref.rank_sum", "liealgebra.killing_space_bruteforce.columns",
               "killingfields.decompose.factors")
CLI_PREFIX = "cli."


class SpanRecorder:
    """In-memory spans as parallel arrays: name id, start, end, parent index."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self.active = False
        self.open_count = []
        self.counts = {name: 0 for name in SIZE_COUNTS}
        self.digits = []
        self.requested_evaluations = 0
        self.sampled_generator_calls = 0

    def name_index(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.open_count.append(0)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.open_count[nid] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.open_count[self.name_id[idx]] -= 1

    def is_open(self, name: str) -> bool:
        i = self._ids.get(name)
        return i is not None and self.open_count[i] > 0

    def totals(self):
        """Per name: (calls, self seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx in range(len(self.start)):
            d = self.end[idx] - self.start[idx]
            calls[self.name_id[idx]] += 1
            self_s[self.name_id[idx]] += d
            p = self.parent[idx]
            if p >= 0:
                self_s[self.name_id[p]] -= d
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path):
        """All spans, as gzip-compressed JSON."""
        doc = {
            "fields": ["name", "start", "end", "parent"],
            "names": self.names,
            "spans": [[self.name_id[i], self.start[i], self.end[i], self.parent[i]]
                      for i in range(len(self.start))],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# size-count hooks: (recorder, args, kwargs, result) after a successful call
def _count_sym_mul(rec, args, kwargs, result):
    rec.counts["tensors.sym_mul.terms_out"] += len(result.terms)


def _count_rref(rec, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    if rows:
        rec.counts["exactlinalg.rref.cells"] += len(rows) * len(rows[0])
    rec.counts["exactlinalg.rref.rank_sum"] += len(result[1])


def _count_bruteforce(rec, args, kwargs, result):
    alg, p = args[0], (args[1] if len(args) > 1 else kwargs["p"])
    rec.counts["liealgebra.killing_space_bruteforce.columns"] += math.comb(alg.dim + p - 1, p)


def _factor_slots(cert):
    return sum(len(factors) for _, factors in cert.terms)


def _count_decompose(rec, args, kwargs, result):
    rec.counts["killingfields.decompose.factors"] += _factor_slots(result)


def _count_verify(rec, args, kwargs, result):
    cert = args[1] if len(args) > 1 else kwargs["cert"]
    rec.digits.append(result.precision_digits)
    rec.requested_evaluations += result.samples * _factor_slots(cert)


def _count_omega_generator(rec, args, kwargs, result):
    w = args[2] if len(args) > 2 else kwargs["w"]
    # the exact check at the origin is not a sample; sampled points are never all zero
    if rec.is_open("killingfields.verify_certificate") and any(x != 0 for x in w):
        rec.sampled_generator_calls += 1


HOOKS = {
    "sym_mul": _count_sym_mul,
    "rref": _count_rref,
    "bruteforce": _count_bruteforce,
    "decompose": _count_decompose,
    "verify": _count_verify,
    "omega_generator": _count_omega_generator,
}


def _wrap(rec: SpanRecorder, name: str, fn, hook):
    nid = rec.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return traced


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, package: str = "killingtensors"):
        self.package = package
        self.recorder = SpanRecorder()
        self.absent = []
        self._restore = []

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def _wrap_function(self, module, attr, name, hook):
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapper = _wrap(self.recorder, name, original, hook)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, module, path, name, hook):
        cls_name, meth = path.split(".")
        cls = getattr(module, cls_name, None)
        original = None if cls is None else cls.__dict__.get(meth)
        if original is None:
            self.absent.append(name)
            return
        self._restore.append((cls, meth, original))
        setattr(cls, meth, _wrap(self.recorder, name, original, hook))

    def __enter__(self):
        for name, (mod_name, path, hook) in LAYERS.items():
            module = importlib.import_module(f"{self.package}.{mod_name}")
            wrap = self._wrap_method if "." in path else self._wrap_function
            wrap(module, path, name, HOOKS.get(hook))
        formats = importlib.import_module(f"{self.package}.fileformats")
        for group, attrs in FORMAT_GROUPS.items():
            for attr in attrs:
                self._wrap_function(formats, attr, group, None)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    def metrics(self) -> dict:
        """Per-layer metric values by name; absent names read 0."""
        rec = self.recorder
        totals = rec.totals()
        out = {}
        for name in list(LAYERS) + list(FORMAT_GROUPS):
            calls, self_s = totals.get(name, (0, 0.0))
            if not name.startswith(CLI_PREFIX):
                out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(rec.counts)
        out["killingfields.verify_certificate.precision_digits_max"] = max(rec.digits, default=0)
        out["killingfields.verify_certificate.precision_digits_mean"] = (
            sum(rec.digits) / len(rec.digits) if rec.digits else 0.0)
        out["killingfields.cache_hit_ratio"] = (
            1.0 - rec.sampled_generator_calls / rec.requested_evaluations
            if rec.requested_evaluations else 0.0)
        return out
