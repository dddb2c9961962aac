"""Outside-in per-layer tracing of fililoop.

``Tracer.installed()`` wraps the public functions of each layer from outside
the package: a module-level function is replaced in every ``fililoop``
module namespace that holds it (``fililoop.group.gmul`` and
``fililoop.loop.gmul`` alike), and a method such as ``Poly.__mul__`` is
replaced on its class.  The four certificate stages of ``mult_group_report``
get a stage span on top, in ``fililoop.mult`` only.  Leaving the context puts
every original back.

Spans are recorded only between ``begin_op`` and ``end_op``; all spans of one
operation carry its id.  ``end_op`` folds them into per-name totals, where a
span's self time is its duration minus the time its child spans cover.
Time spent in the tracer's own result hooks is booked as an unnamed child
span, so it does not inflate a parent's self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

from fililoop import algebra, cli, exact, group, loop, mult

SIZES = (2, 3, 4, 6, 8)
PER_CALL = ("group.gmul", "group.ginv", "group.commutator", "group.glog")

# name -> (owner, attribute); the owner is a module or, for methods, a class.
FUNCTIONS = {
    "exact.poly_eval": (exact.Poly, "__call__"),
    "exact.poly_mul": (exact.Poly, "__mul__"),
    "exact.matmul": (exact.RatMatrix, "__matmul__"),
    "exact.row_space_basis": (exact, "row_space_basis"),
    "exact.span_residual": (exact, "span_residual"),
    "exact.nullspace": (exact, "nullspace"),
    "algebra.bracket": (algebra, "bracket"),
    "algebra.subalgebra_closure": (algebra, "subalgebra_closure"),
    "algebra.span": (algebra.SubalgebraBasis, "span"),
    "algebra.core_ideal": (algebra, "core_ideal"),
    "algebra.classify_subalgebra": (algebra, "classify_subalgebra"),
    "algebra.phi_automorphism": (algebra, "phi_automorphism"),
    "group.gmul": (group, "gmul"),
    "group.ginv": (group, "ginv"),
    "group.commutator": (group, "commutator"),
    "group.glog": (group, "glog"),
    "group.to_matrix": (group, "to_matrix"),
    "group.from_matrix": (group, "from_matrix"),
    "loop.lmul": (loop, "lmul"),
    "loop.ldiv": (loop, "ldiv"),
    "loop.rdiv": (loop, "rdiv"),
    "loop.comm_defect": (loop, "comm_defect"),
    "mult.report": (mult, "mult_group_report"),
    "mult.solve_companions": (mult, "solve_companions"),
    "cli.load_spec": (cli, "load_spec"),
    "cli.main": (cli, "main"),
}

# Stage spans of mult_group_report, installed over the function wrappers.
# transversal_identity_holds also runs inside h_connected_transversal; the
# inner call merges into the open stage span.
STAGES = (
    ("mult.transversal", "h_connected_transversal"),
    ("mult.transversal", "transversal_identity_holds"),
    ("mult.h_connected", "check_h_connected"),
    ("mult.generation", "generated_subalgebra_of"),
    ("mult.core_trivial", "core_ideal"),
)

# Functions whose calls and self time are reported (cli.main as cli.self_ms).
REPORTED = [name for name in FUNCTIONS if name != "cli.main"] + [
    "mult.transversal", "mult.h_connected", "mult.generation", "mult.core_trivial"]

_GROUP = ["group.gmul", "group.ginv", "group.commutator", "group.glog",
          "group.to_matrix", "group.from_matrix"]
_LOOP = ["loop.lmul", "loop.ldiv", "loop.rdiv", "loop.comm_defect"]

# The layer table: functions that must record calls on a workload, and
# functions that must record none there.
USED = {
    "thm3": ["exact.matmul", "exact.row_space_basis", "exact.span_residual",
             "algebra.bracket", "algebra.subalgebra_closure", "algebra.span",
             "algebra.core_ideal", *_GROUP, "mult.report", "mult.transversal",
             "mult.h_connected", "mult.generation", "mult.core_trivial",
             "cli.load_spec", "cli.main"],
    "loop-arith": ["exact.poly_eval", "exact.poly_mul", *_LOOP, "mult.solve_companions"],
    "subalgebra": ["exact.row_space_basis", "exact.span_residual", "exact.nullspace",
                   "algebra.bracket", "algebra.subalgebra_closure", "algebra.span",
                   "algebra.core_ideal", "algebra.classify_subalgebra",
                   "algebra.phi_automorphism"],
}
ZERO = {
    "thm3": _LOOP,
    "loop-arith": ["exact.matmul", "exact.row_space_basis", "exact.span_residual",
                   "exact.nullspace", *_GROUP],
    "subalgebra": [*_GROUP, *_LOOP],
}


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def value_bits(value) -> int:
    """Largest numerator or denominator bit length inside a result."""
    if isinstance(value, Fraction):
        return _bits(value)
    if isinstance(value, group.GroupElement):
        return max(_bits(value.c), _bits(value.b), *map(_bits, value.a))
    if isinstance(value, algebra.AlgebraElement):
        return max(map(_bits, value.coeffs))
    if isinstance(value, exact.RatMatrix):
        return max(_bits(e) for row in value.entries for e in row)
    if isinstance(value, loop.LoopPoint):
        return max(_bits(value.u), _bits(value.z))
    if isinstance(value, exact.Poly):
        return max((value_bits(c) for c in value.coeffs), default=0)
    return 0


class Tracer:
    """Span recorder and per-name totals for one traced run."""

    def __init__(self):
        self.op_id = None
        self.spans: list = []
        self._open: list[tuple[int, str]] = []
        self._patches: list = []
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.bucket_calls: dict = defaultdict(int)
        self.bucket_s: dict = defaultdict(float)
        self.live: dict = defaultdict(int)
        self.max_bits: dict = defaultdict(int)
        self.h_seen = None
        self.h_computed = 0
        self.h_distinct = 0
        self.closure_brackets = 0
        self.closure_gained = 0
        self._rank = None

    # -- operations ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans = []
        self._open = []

    def end_op(self) -> None:
        spans = self.spans
        covered = [0.0] * len(spans)
        for op_id, name, parent, t0, t1, bucket in spans:
            if op_id != self.op_id:
                raise RuntimeError("span recorded under another operation")
            if parent >= 0:
                covered[parent] += t1 - t0
        for i, (_, name, _, t0, t1, bucket) in enumerate(spans):
            if name is None:
                continue
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - covered[i]
            if bucket is not None:
                self.bucket_calls[name, bucket] += 1
                self.bucket_s[name, bucket] += t1 - t0
        self.op_id = None
        self.spans = []
        self.h_seen = None

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, *, bucket=None, pre=None, post=None, merge=False):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None or (merge and tracer._open and tracer._open[-1][1] == name):
                return fn(*args, **kwargs)
            spans, opened = tracer.spans, tracer._open
            parent = opened[-1][0] if opened else -1
            index = len(spans)
            spans.append(None)
            tracer.live[name] += 1
            token = pre() if pre else None
            opened.append((index, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                spans[index] = (tracer.op_id, name, parent, t0, t1,
                                bucket(args) if bucket else None)
            if post:
                post(result, args, token)
                spans.append((tracer.op_id, None, parent, t1, clock(), None))
            return result

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def _hooks(self, name):
        if name in _GROUP:
            def group_bits(result, args, token):
                self.max_bits["group"] = max(self.max_bits["group"], value_bits(result))
                if name == "group.commutator" and self.h_seen is not None:
                    # b is central, so operands equal up to b repeat a commutator.
                    g1, g2 = args
                    self.h_seen.add((g1.c, g1.a, g2.c, g2.a))
                    self.h_computed += 1
            size = ((lambda args: args[0].rows - 2) if name == "group.from_matrix"
                    else (lambda args: args[0].n))
            return {"bucket": size, "post": group_bits}
        if name in _LOOP:
            def loop_bits(result, args, token):
                self.max_bits["loop"] = max(self.max_bits["loop"], value_bits(result))
            return {"post": loop_bits}
        if name == "algebra.subalgebra_closure":
            def closure(result, args, token):
                self.closure_brackets += self.live["algebra.bracket"] - token
                self.closure_gained += result.dimension - len(self._rank([g.coeffs for g in args[0]]))
            return {"pre": lambda: self.live["algebra.bracket"], "post": closure}
        if name == "mult.h_connected":
            def start():
                self.h_seen = set()

            def finish(result, args, token):
                self.h_distinct += len(self.h_seen)
                self.h_seen = None
            return {"pre": start, "post": finish}
        if name == "mult.transversal":
            return {"merge": True}
        return {}

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for key, m in sys.modules.items()
                   if key == "fililoop" or key.startswith("fililoop.")]
        self._rank = exact.row_space_basis
        try:
            for name, (owner, attr) in FUNCTIONS.items():
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, **self._hooks(name)))
                    else:
                        new = self._wrap(name, raw, **self._hooks(name))
                    self._patch(owner, attr, new)
                else:
                    self._replace_everywhere(modules, getattr(owner, attr),
                                             self._wrap(name, getattr(owner, attr),
                                                        **self._hooks(name)))
            for name, attr in STAGES:
                current = getattr(mult, attr)
                wrapper = self._wrap(name, current, **self._hooks(name))
                if attr in vars(algebra):
                    self._patch(mult, attr, wrapper)
                else:
                    self._replace_everywhere(modules, current, wrapper)
            yield self
        finally:
            self.restore()

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def table_violations(self, workload: str) -> list[str]:
        out = [f"{name} recorded no calls on {workload}"
               for name in USED[workload] if not self.calls[name]]
        out += [f"{name} recorded {self.calls[name]} calls on {workload}, expected none"
                for name in ZERO[workload] if self.calls[name]]
        return out

    def metrics(self) -> dict:
        """Per-layer values by metric name (units in ``per_layer_units``)."""
        out = {}
        for name in REPORTED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3
        out["algebra.closure.useful_ratio"] = (
            self.closure_gained / self.closure_brackets if self.closure_brackets else 0.0)
        for name in PER_CALL:
            for n in SIZES:
                calls = self.bucket_calls[name, n]
                out[f"{name}.us_per_call.n{n}"] = self.bucket_s[name, n] / calls * 1e6 if calls else 0.0
        out["group.max_bits"] = self.max_bits["group"]
        out["loop.max_bits"] = self.max_bits["loop"]
        out["mult.h_connected.commutators"] = self.h_computed
        out["mult.h_connected.distinct_ratio"] = (
            self.h_distinct / self.h_computed if self.h_computed else 0.0)
        out["cli.self_ms"] = self.self_s["cli.main"] * 1e3
        return out
