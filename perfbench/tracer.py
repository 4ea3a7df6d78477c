"""Span tracing of idop's layers from outside, for the traced run only.

`Tracer.install` replaces the public functions and methods listed in TARGETS
with wrappers, at the places callers look them up (module attributes such as
`idop.tensor.atom_mul` and `idop.oracle.to_matrix`, and class attributes
such as `Element1.__mul__`); `uninstall` puts the originals back.  Each
wrapped call records one span: name, start, end, parent span and the id of
the benchmark operation it belongs to.  Spans are kept in flat arrays in
memory and written out at the end.

A span's self time is its duration minus the time its child spans cover.
The wrappers' own bookkeeping (counting terms, bits and repeated atom
pairs) runs after a span ends and is charged neither to the span nor to its
parent, so it shows only in the traced run's total (trace.overhead_ratio).
"""

from __future__ import annotations

import gzip
import time
from array import array

# (owner path, attribute, span name).  The owner path is resolved against the
# benchmark's `lib` namespace; several owners may share one span name when a
# module imported the function under its own name.
TARGETS = [
    ("hpoly", "shift", "hpoly.shift"),
    ("hpoly", "mul", "hpoly.mul"),
    ("hpoly", "evaluate", "hpoly.evaluate"),
    ("element", "atom_mul", "element.atom_mul"),
    ("tensor", "atom_mul", "element.atom_mul"),
    ("element.Element1", "__mul__", "element.Element1.mul"),
    ("tensor.ElementN", "__mul__", "tensor.ElementN.mul"),
    ("tensor.ElementN", "__str__", "tensor.ElementN.str"),
    ("tensor", "project_bn", "tensor.project_bn"),
    ("tensor.BnElement", "__mul__", "tensor.BnElement.mul"),
    ("oracle", "to_matrix", "oracle.to_matrix"),
    ("oracle", "to_matrix_n", "oracle.to_matrix_n"),
    ("oracle.TruncMatrix", "__matmul__", "oracle.TruncMatrix.matmul"),
    ("oracle", "consistent", "oracle.consistent"),
    ("oracle.RowReducer", "add", "oracle.RowReducer.add"),
    ("structure", "socle_level", "structure.socle_level"),
    ("structure", "census", "structure.census"),
    ("structure", "bimodule_filtration_dims", "structure.bimodule_filtration_dims"),
    ("expr", "parse_element", "expr.parse_element"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})


def _bits(c) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.current_op = -1
        self._stack: list = []  # [span index, time covered by children]
        self._saved: list = []
        self.reset_job()

    # -- per-job counters ----------------------------------------------------

    def reset_job(self) -> None:
        self.terms_out = {"element.Element1.mul": 0, "tensor.ElementN.mul": 0}
        self.max_bits = 0
        self.kept = 0
        self._pairs_seen: set = set()
        self.pair_repeats = 0
        self._reducers: dict = {}

    def reducer_max_bits(self) -> int:
        """Largest entry, in bits, of the rows the reducers of this job kept."""
        best = 0
        for red in self._reducers.values():
            for row in getattr(red, "_rows", ()):
                for v in row.values():
                    best = max(best, _bits(v))
        return best

    # -- bookkeeping hooks, run after a span has ended -----------------------

    def _after_product(self, name, args, res) -> None:
        if name == "element.Element1.mul":
            coeffs = [c for p in res.graded.values() for c in p if c]
            coeffs += res.fpart.values()
        else:
            coeffs = list(res.terms.values())
        self.terms_out[name] += len(coeffs)
        if coeffs:
            self.max_bits = max(self.max_bits, max(_bits(c) for c in coeffs))

    def _after_atom_mul(self, name, args, res) -> None:
        pair = (args[0], args[1])
        if pair in self._pairs_seen:
            self.pair_repeats += 1
        else:
            self._pairs_seen.add(pair)

    def _after_add(self, name, args, res) -> None:
        self.kept += bool(res)
        self._reducers[id(args[0])] = args[0]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        hook = {
            "element.Element1.mul": self._after_product,
            "tensor.ElementN.mul": self._after_product,
            "element.atom_mul": self._after_atom_mul,
            "oracle.RowReducer.add": self._after_add,
        }.get(name)
        nid = self._ids[name]
        stack = self._stack
        clock = time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, selfs = self.start, self.end, self.self_time
        tracer = self

        def wrapper(*args, **kwargs):
            entered = clock()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            selfs.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                selfs[idx] = t1 - t0 - frame[1]
            if hook is not None and res is not NotImplemented:
                hook(name, args, res)
            if stack:
                stack[-1][1] += clock() - entered
            return res

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, lib) -> None:
        wrapped: dict = {}
        for owner_path, attr, name in TARGETS:
            owner = lib
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading the spans ---------------------------------------------------

    def totals(self, op_factors) -> dict:
        """Per span name: (calls, self time in reference seconds), given the
        speed factor of each operation."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, op, st in zip(self.name, self.op, self.self_time):
            calls[nid] += 1
            self_s[nid] += st * op_factors[op]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def top_level_time(self, op_factors) -> float:
        """Reference seconds covered by spans that have no parent span."""
        return sum(
            (e - s) * op_factors[op]
            for p, op, s, e in zip(self.parent, self.op, self.start, self.end)
            if p < 0
        )

    def write(self, path) -> None:
        """Write every span as a tab-separated row (times in raw seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\tself_s\n")
            t_base = self.start[0] if self.start else 0.0
            for i, (nid, p, op, s, e, st) in enumerate(
                zip(self.name, self.parent, self.op, self.start, self.end, self.self_time)
            ):
                out.write(
                    f"{i}\t{p}\t{op}\t{self.names[nid]}\t{s - t_base:.7f}\t{e - t_base:.7f}\t{st:.7f}\n"
                )
