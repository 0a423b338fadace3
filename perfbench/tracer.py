"""Per-layer spans for the traced benchmark run.

The layers are the package modules plus ``linalg``, the scipy.linalg and
numpy.linalg entry points under them.  ``Tracer.install`` rebinds every
public function of every layer module, in every module namespace that holds
it (``oracle.classify``, ``cli.dynamical_matrix``, ``bcs.eigen_pairs`` and
the package's own re-exports included), plus the public methods of the
classes those modules define, and every callable in ``scipy.linalg.__all__``
and ``numpy.linalg.__all__``.  ``uninstall`` puts the originals back.

A span is recorded only while an op runs (``begin_op``/``end_op``).  Spans
keep a stack: self time is a span's duration minus that of its direct child
spans, so a layer's ``self_s`` excludes the linalg calls made under it.  A
linalg call made from inside another linalg call (scipy calling numpy) is
not a new span.  Aggregates are updated at each span exit; the spans of the
last traced pass stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
from collections import Counter, defaultdict
from enum import Enum
from time import perf_counter

import numpy as np

LAYERS = ("formio", "core", "bcs", "spectral", "normal_modes", "evolution",
          "oracle", "cli")
# linalg entry points grouped into the kernels the per-layer metrics name;
# everything else counts only towards linalg.calls / linalg.self_s
LINALG_KINDS = {"eig": "eig", "eigvals": "eig", "eigh": "eigh", "eigvalsh": "eigh",
                "svd": "svd", "svdvals": "svd", "expm": "expm"}
KINDS = ("eig", "eigh", "svd", "expm")

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"{layer}.{stat}", unit, "lower")
     for layer in LAYERS + ("linalg",)
     for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"linalg.{kind}{stat}", unit, "lower")
       for kind in KINDS for stat, unit in (("_calls", "count"), ("_s", "s"))]
    + [
        ("spectral.eigensolves", "count", "lower"),
        ("spectral.forms", "count", "lower"),
        ("spectral.eigensolves_per_form", "ratio", "lower"),
        ("spectral.rank_svds", "count", "lower"),
        ("evolution.expm_calls", "count", "lower"),
        ("oracle.checks", "count", "lower"),
        ("oracle.fock_builds", "count", "lower"),
        ("oracle.fock_builds_per_check", "ratio", "lower"),
        ("oracle.fock_bytes_computed", "B", "lower"),
        ("cli.out_bytes", "B", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def _form_key(obj):
    """Identity of the form a spectral call works on.

    A QuadraticForm and the DynamicalMatrix built from it give the same key:
    the top half of M Hmat is exactly [A, B].  Adding 0.0 maps -0.0 to 0.0.
    """
    if hasattr(obj, "A") and hasattr(obj, "B"):
        top = np.concatenate([obj.A, obj.B], axis=1)
    elif hasattr(obj, "matrix") and hasattr(obj, "n_modes"):
        top = obj.matrix[: obj.n_modes]
    else:
        return None
    return hashlib.sha1(np.ascontiguousarray(top + 0.0, dtype=complex).tobytes()).digest()


class Tracer:
    def __init__(self):
        self.active = False
        self._patches = []
        self.reset()

    # -- aggregates ---------------------------------------------------------

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._forms = set()
        self.op_id = -1

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._forms = set()
        self.active = True

    def end_op(self):
        self.active = False
        self.counts["spectral.forms"] += len(self._forms)

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset (one pass)."""
        m = {}
        for layer in LAYERS + ("linalg",):
            m[f"{layer}.calls"] = self.calls[layer]
            m[f"{layer}.self_s"] = self.self_s[layer]
        for kind in KINDS:
            m[f"linalg.{kind}_calls"] = self.calls["linalg:" + kind]
            m[f"linalg.{kind}_s"] = self.self_s["linalg:" + kind]
        c = self.counts
        for name in ("spectral.eigensolves", "spectral.forms", "spectral.rank_svds",
                     "evolution.expm_calls"):
            m[name] = c[name]
        m["spectral.eigensolves_per_form"] = (
            c["spectral.eigensolves"] / c["spectral.forms"] if c["spectral.forms"] else 0.0)
        # checks that ran to the end; a form in the wrong regime raises early
        checks = (self.calls["oracle:fock_spectrum_check"]
                  - self.calls["oracle:fock_spectrum_check:raised"])
        builds = self.calls["oracle:fock_hamiltonian"]
        m["oracle.checks"] = checks
        m["oracle.fock_builds"] = builds
        m["oracle.fock_builds_per_check"] = builds / checks if checks else 0.0
        m["oracle.fock_bytes_computed"] = c["oracle.fock_bytes_computed"]
        return m

    # -- spans --------------------------------------------------------------

    def _parent_layer(self):
        return self._stack[-1][0] if self._stack else None

    def _count_call(self, layer, name, args, kwargs):
        if layer == "spectral" and self._parent_layer() != "spectral" and args:
            key = _form_key(args[0])
            if key is not None:
                self._forms.add(key)
        elif layer == "oracle" and name == "fock_hamiltonian":
            form = args[0] if args else kwargs["form"]
            n_max = args[1] if len(args) > 1 else kwargs["n_max"]
            self.counts["oracle.fock_bytes_computed"] += ((n_max + 1) ** form.n_modes) ** 2 * 16

    def _count_linalg(self, kind, attr):
        parent = self._parent_layer()
        if parent == "spectral" and kind == "eig":
            self.counts["spectral.eigensolves"] += 1
        elif parent == "spectral" and attr == "svdvals":
            self.counts["spectral.rank_svds"] += 1
        elif parent == "evolution" and kind == "expm":
            self.counts["evolution.expm_calls"] += 1

    def _push(self, layer, name):
        parent_id = self._stack[-1][4] if self._stack else 0
        self._next_id += 1
        self._stack.append([layer, name, perf_counter(), 0.0, self._next_id, parent_id])

    def _exit(self, raised=False):
        end = perf_counter()
        layer, name, start, child, span_id, parent_id = self._stack.pop()
        dur = end - start
        self.calls[layer] += 1
        self.self_s[layer] += dur - child
        self.calls[f"{layer}:{name}"] += 1
        self.self_s[f"{layer}:{name}"] += dur - child
        if raised:
            self.calls[f"{layer}:{name}:raised"] += 1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((self.op_id, span_id, parent_id, layer, name, start, end))

    def _wrap(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._count_call(layer, name, args, kwargs)
            tracer._push(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(raised=True)
                raise
            tracer._exit()
            return result

        return traced

    def _wrap_linalg(self, fn, attr):
        tracer = self
        kind = LINALG_KINDS.get(attr, "other")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][0] == "linalg"):
                return fn(*args, **kwargs)
            k = kind
            if attr == "norm":
                order = args[1] if len(args) > 1 else kwargs.get("ord")
                k = "svd" if order in (2, -2) else "other"
            tracer._count_linalg(k, attr)
            tracer._push("linalg", k)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers of the currently imported ``quadboson``."""
        import scipy.linalg

        package = importlib.import_module("quadboson")
        modules = {layer: importlib.import_module(f"quadboson.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, layer, attr)
                elif inspect.isclass(obj) and not issubclass(obj, Enum):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, mattr, self._wrap(meth, layer, f"{attr}.{mattr}"))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for owner in (np.linalg, scipy.linalg):
            for attr in owner.__all__:
                obj = getattr(owner, attr, None)
                if callable(obj) and not isinstance(obj, type):
                    self._patch(owner, attr, self._wrap_linalg(obj, attr))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        """Spans of the last traced pass, one JSON array per line:
        op, span id, parent span id, layer, name, start s, end s."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
