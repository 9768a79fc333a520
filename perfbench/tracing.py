"""Per-layer tracing by wrapping corelate's public functions from outside.

Only the traced run installs these wrappers; the end-to-end run never
imports this module.  Every public function of each corelate module, and
every public method of the ``Ambient`` classes, is replaced by a wrapper
that records a span: name, start, end, parent span and operation id.  The
wrapper is put in every module that holds a reference to the function, so
calls through ``from .x import f`` are seen too.  Generator functions get
one span per step, so lazily produced work is charged where it happens.

Spans stay in memory, in flat arrays, and are written out at the end.  A
span's self time is its duration minus the time its child spans cover,
with the reference kernel's handler time taken out of both.

Ring arithmetic (``Ring.add/sub/mul/neg/inv``) is far too fine-grained for
spans; it is counted instead, per ring.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("exactnum", "finfn", "linmap", "spancospan", "corelrel", "diagrams", "literals", "verify", "cli")
AMBIENT_CLASSES = ("Ambient", "FinFnAmbient", "ParFnAmbient", "MatrixAmbient")
RING_CLASSES = ("Ring", "IntegerRing", "RationalRing", "PrimeField")
RING_OPS = ("add", "sub", "mul", "neg", "inv")
CHECKS = {
    "check_assumption31": "assumption31",
    "check_assumption33": "assumption33",
    "check_square_commutes": "square",
    "check_pi_functorial": "pi-functorial",
    "check_tensor_functorial": "tensor-functorial",
    "check_category_laws": "laws",
    "check_frobenius": "frobenius",
}
CASE_CHECKERS = ("assumption31_case", "assumption33_case", "square_case", "pi_functorial_case")
Z_SMITH = ("kernel_basis", "pid_factorize", "is_split_mono", "mat_pushout", "mat_solve")


def _max_bits(value, zz) -> int:
    """Largest entry bit-length of the integer matrices in a return value."""
    if isinstance(value, tuple):
        if hasattr(value, "entries") and hasattr(value, "ring"):
            if value.ring != zz:
                return 0
            return max((abs(v).bit_length() for row in value.entries for v in row), default=0)
        return max((_max_bits(v, zz) for v in value), default=0)
    return 0


class Tracer:
    """Span recorder; ``install`` patches corelate, ``uninstall`` restores it."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.enabled = True
        self.scalar_ops: Counter = Counter()
        self.z_peak_bits = 0
        self.pairs = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def span_wrapper(self, fn, name: str, namer=None, on_result=None):
        tracer = self
        fixed = self.name_id(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(fixed)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    if on_result is not None:
                        on_result(item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            nid = fixed if namer is None else tracer.name_id(namer(args))
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(ring, *args):
            if tracer.enabled:
                tracer.scalar_ops[ring.name] += 1
            return fn(ring, *args)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap corelate's public functions and Ambient methods in every
        corelate module that references them."""
        mods = {name: importlib.import_module(f"corelate.{name}") for name in LAYERS}
        exactnum = mods["exactnum"]
        zz = exactnum.ZZ
        replace: dict[int, object] = {}

        def bits(result):
            b = _max_bits(result, zz)
            if b > self.z_peak_bits:
                self.z_peak_bits = b

        def count_pair(_item):
            self.pairs += 1

        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not (layer == "verify" and attr == "_pairs"):
                    continue
                namer = on_result = None
                if layer == "linmap":
                    namer = _ring_namer(f"linmap.{attr}")
                    on_result = bits
                if layer == "verify" and attr == "_pairs":
                    on_result = count_pair
                replace[id(fn)] = self.span_wrapper(fn, f"{layer}.{attr}", namer, on_result)
        for cls_name in AMBIENT_CLASSES:
            cls = getattr(mods["spancospan"], cls_name)
            for attr, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    self._set(cls, attr, self.span_wrapper(fn, f"spancospan.{cls_name}.{attr}"))
        for cls_name in RING_CLASSES:
            cls = getattr(exactnum, cls_name)
            for attr in RING_OPS:
                fn = vars(cls).get(attr)
                if fn is not None:
                    self._set(cls, attr, self.count_wrapper(fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replace:
                    self._set(mod, attr, replace[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, stolen_between):
        """Per-span self seconds: the span's duration, less the reference
        kernel's handler time inside it (``stolen_between(t0, t1)``), minus
        the same adjusted durations of its child spans."""
        dur = array("d", (e - s - stolen_between(s, e) for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path) -> None:
        """One JSON header line (span names, count, array layout), then the
        columns name id, start, end, parent and operation id as packed
        native arrays."""
        columns = ("span_name", "start", "end", "parent", "op")
        header = {
            "names": self.names,
            "spans": self.span_count(),
            "columns": [[c, getattr(self, c).typecode, getattr(self, c).itemsize] for c in columns],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for c in columns:
                getattr(self, c).tofile(fh)


def _ring_namer(base: str):
    def namer(args):
        ring = getattr(args[0], "ring", None) if args else None
        return f"{base}.{ring.name}" if ring is not None else base

    return namer


def _group(name: str):
    """The per-layer metric groups a span name belongs to."""
    layer, _, rest = name.partition(".")
    groups = [layer]
    fn = rest.split(".")[-1] if layer == "spancospan" and rest.count(".") else rest.split(".")[0]
    if layer == "finfn":
        for kind in ("pushout", "pullback", "factorize"):
            if fn in (f"fn_{kind}", f"par_{kind}"):
                groups.append(f"finfn.{kind}")
    elif layer == "linmap":
        if fn == "rref" and rest.endswith((".gf2", ".q")):
            groups.append(f"linmap.rref.{rest.split('.')[-1]}")
        elif fn == "hnf_row":
            groups.append("linmap.hnf_row")
        if fn in Z_SMITH and rest.endswith(".z"):
            groups.append("linmap.z_smith")
    elif layer == "spancospan":
        if fn in ("cospan_compose", "span_compose"):
            groups.append("spancospan.compose")
        elif fn in ("cospan_canonical", "span_canonical", "canonical_cospan", "canonical_span"):
            groups.append("spancospan.canonical")
    elif layer == "corelrel":
        for kind, names in (
            ("gamma", ("gamma",)),
            ("compose", ("corel_compose", "rel_compose")),
            ("tensor", ("corel_tensor", "rel_tensor")),
            ("rel_canonical", ("rel_canonical",)),
        ):
            if fn in names:
                groups.append(f"corelrel.{kind}")
    elif layer == "diagrams":
        for kind, target in (("parse", "parse_term"), ("eval", "eval_term"), ("get_theory", "get_theory")):
            if fn == target:
                groups.append(f"diagrams.{kind}")
    elif layer == "verify" and fn in CASE_CHECKERS:
        groups.append("verify.cases")
        if fn in ("assumption31_case", "assumption33_case"):
            groups.append("verify.pair_cases")
    return groups


def layer_metrics(tracer: Tracer, rounds: int, factor: float, stolen_between) -> dict:
    """Per-layer metrics per round (set-up spans counted once), self times
    in reference-speed seconds (raw times ``factor``), with the handler
    time ``stolen_between(t0, t1)`` of the reference kernel taken out."""
    self_s = tracer.self_times(stolen_between)
    groups = {nid: _group(name) for nid, name in enumerate(tracer.names)}
    setup_calls: Counter = Counter()  # spans outside every operation, counted once
    op_calls: Counter = Counter()
    busy: Counter = Counter()
    labels = list(CHECKS.values())
    check_index = {tracer.name_ids[f"verify.{fn}"]: k for k, fn in enumerate(CHECKS) if f"verify.{fn}" in tracer.name_ids}
    random_a = {nid for nid, name in enumerate(tracer.names) if name.endswith(".random_a_morphism")}
    random_m = {nid for nid, name in enumerate(tracer.names) if name.endswith(".random_morphism")}
    check_of = array("i")  # index into labels of the check a span runs under, or -1
    draws: Counter = Counter()  # random_a_morphism span -> its random_morphism children
    accepted = 0
    for i in range(tracer.span_count()):
        nid, parent = tracer.span_name[i], tracer.parent[i]
        in_setup = tracer.op[i] < 0
        w = 1.0 if in_setup else 1.0 / rounds
        counted = setup_calls if in_setup else op_calls
        check = check_index.get(nid, check_of[parent] if parent >= 0 else -1)
        check_of.append(check)
        for g in groups[nid]:
            counted[g] += 1
            busy[g] += w * self_s[i]
        if check >= 0 and groups[nid][0] == "verify":
            busy[f"verify.{labels[check]}"] += w * self_s[i]
        if nid in random_a:
            accepted += 1
        elif nid in random_m and parent >= 0 and tracer.span_name[parent] in random_a:
            draws[parent] += 1
    attempts = accepted + sum(n - 1 for n in draws.values())
    calls = Counter({g: setup_calls[g] + op_calls[g] / rounds for g in setup_calls | op_calls})
    pair_cases = calls["verify.pair_cases"]
    out = {
        "exactnum.scalar_ops.gf2": (tracer.scalar_ops["gf2"] / rounds, "count"),
        "exactnum.scalar_ops.q": (tracer.scalar_ops["q"] / rounds, "count"),
        "finfn.calls": (calls["finfn"], "count"),
        "finfn.self_s": (factor * busy["finfn"], "s"),
        "finfn.pushout.self_s": (factor * busy["finfn.pushout"], "s"),
        "finfn.pullback.self_s": (factor * busy["finfn.pullback"], "s"),
        "finfn.factorize.self_s": (factor * busy["finfn.factorize"], "s"),
        "linmap.calls": (calls["linmap"], "count"),
        "linmap.self_s": (factor * busy["linmap"], "s"),
        "linmap.rref.gf2.self_s": (factor * busy["linmap.rref.gf2"], "s"),
        "linmap.rref.q.self_s": (factor * busy["linmap.rref.q"], "s"),
        "linmap.hnf_row.self_s": (factor * busy["linmap.hnf_row"], "s"),
        "linmap.z_smith_calls": (calls["linmap.z_smith"], "count"),
        "linmap.z.peak_bits": (tracer.z_peak_bits, "bits"),
        "spancospan.compose.calls": (calls["spancospan.compose"], "count"),
        "spancospan.compose.self_s": (factor * busy["spancospan.compose"], "s"),
        "spancospan.canonical.self_s": (factor * busy["spancospan.canonical"], "s"),
        "spancospan.random_a.accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "corelrel.gamma.calls": (calls["corelrel.gamma"], "count"),
        "corelrel.gamma.self_s": (factor * busy["corelrel.gamma"], "s"),
        "corelrel.compose.self_s": (factor * busy["corelrel.compose"], "s"),
        "corelrel.tensor.self_s": (factor * busy["corelrel.tensor"], "s"),
        "corelrel.rel_canonical.self_s": (factor * busy["corelrel.rel_canonical"], "s"),
        "diagrams.parse.self_s": (factor * busy["diagrams.parse"], "s"),
        "diagrams.eval.self_s": (factor * busy["diagrams.eval"], "s"),
        "diagrams.get_theory.calls": (calls["diagrams.get_theory"], "count"),
        "literals.self_s": (factor * busy["literals"], "s"),
    }
    for label in labels:
        out[f"verify.{label}.self_s"] = (factor * busy[f"verify.{label}"], "s")
    out["verify.cases"] = (calls["verify.cases"], "count")
    out["verify.dedup_ratio"] = (pair_cases / (tracer.pairs / rounds) if tracer.pairs else 0.0, "ratio")
    out["cli.self_s"] = (factor * busy["cli"], "s")
    return out
