"""Layer tracing from outside the library, by rebinding names at runtime.

`Tracer.install()` replaces each layer's public entry points with wrappers
that record a span (name, start, end, parent) while an operation is being
traced. A module-level function is rebound in every `twisted_dihedral`
module that holds it, so `kem.rep_serialize` is wrapped as well as
`algebra.rep_serialize`; a method is rebound on its class. `restore()`
puts every original object back. Nothing under `src/` is edited.

Spans of one operation live in flat arrays and are folded into per-name
aggregates when the operation ends: call count, inclusive time, self time
(duration minus the time covered by child spans), parent->child call
counts, and the calls and bytes returned by the outermost span of each
group of names that nest.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

from bench import PACKAGE

# (module, function) pairs rebound wherever the function object is bound.
# Only spans that a per-layer metric reads are traced, or that split a
# parent's self time for one (see metrics.per_layer).
FUNCTIONS = [
    ("algebra", "alg_product"), ("algebra", "adjunct"),
    ("algebra", "rep_serialize"), ("algebra", "serialize_field_elements"),
    ("algebra", "rep_deserialize"), ("algebra", "sample_subspace"),
    ("algebra", "sample_gamma"), ("algebra", "sample_secret_pair"),
    ("algebra", "index_h"),
    ("kex", "setup_public_params"), ("kex", "derive_public"),
    ("kex", "derive_shared"),
    ("pke", "pke_gen"), ("pke", "pke_enc"), ("pke", "pke_dec"),
    ("kem", "kem_encaps"), ("kem", "kem_decaps"),
    ("kem", "hash_g1"), ("kem", "hash_g2"),
    ("attacks", "mitm_offline"), ("attacks", "mitm_online"),
    ("formats", "read_param_file"), ("formats", "read_element_file"),
    ("formats", "write_element_file"),
]

# (module, class, attribute) rebound on the class; plain functions,
# classmethods and properties are handled.
METHODS = [
    ("field", "FieldParams", a) for a in (
        "elem", "from_rep", "zero", "one", "digits_of", "rep_of", "add_rep",
        "neg_rep", "sub_rep", "mul_rep", "inv_rep", "pow_rep",
        "random_element", "random_unit")
] + [
    ("field", "FieldElement", a) for a in (
        "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__",
        "inverse", "digits")
] + [
    ("group", "DihedralGroup", "__init__"),
    ("cocycle", "Cocycle", "alpha"),
    ("algebra", "AlgebraParams", "element"),
    ("algebra", "AlgebraElement", "__eq__"),
]

# Properties whose first read on a fresh field builds the q x q tables.
TABLE_PROPERTIES = [("field", "FieldParams", "add_table"),
                    ("field", "FieldParams", "mul_table")]
TABLE_BUILD = "field.table_build"
TABLE_ENTRIES = "field.table_entries"

# Names in one group count as one call when they nest (a ciphertext's
# rep_serialize calls rep_serialize on each half).
GROUPS = {
    "serialize": ["algebra.rep_serialize", "algebra.serialize_field_elements"],
    "sample": ["algebra.sample_subspace", "algebra.sample_gamma",
               "algebra.sample_secret_pair"],
}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fn in FUNCTIONS]
    names += [f"{mod}.{cls}.{attr}" for mod, cls, attr in METHODS]
    return names + [TABLE_BUILD]


class OpStats:
    """Aggregates over every traced operation of one kind."""

    def __init__(self, size: int):
        self.ops = 0
        self.op_ns = 0
        zeros = lambda: np.zeros(size, dtype=np.float64)  # noqa: E731
        self.count, self.incl, self.self_ns = zeros(), zeros(), zeros()
        self.outer_count, self.outer_incl, self.outer_bytes = (
            zeros(), zeros(), zeros())
        # edges[parent, child]; the last row is "no parent"
        self.edges = np.zeros((size + 1, size), dtype=np.float64)
        self.counters: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.index = {name: i for i, name in enumerate(self.names)}
        size = len(self.names)
        self.group_of = np.arange(size + 1)
        for members in GROUPS.values():
            gid = self.index[members[0]]
            for name in members:
                self.group_of[self.index[name]] = gid
        self.recording = False
        self.stats: dict[str, OpStats] = {}
        self._stack: list[int] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._bytes = array("q")
        self._counters: dict[str, float] = {}
        self._bindings: list[tuple[object, str, object]] = []

    # --- wrapping ---

    def _wrap(self, name: str, fn, leaf: bool = False):
        """Wrap fn in a span; a leaf span records none of its callees."""
        nid = self.index[name]
        stack, names, parents = self._stack, self._name, self._parent
        starts, ends, nbytes = self._start, self._end, self._bytes
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            nbytes.append(0)
            stack.append(idx)
            tracer.recording = not leaf
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                tracer.recording = True
            if type(out) is bytes:
                nbytes[idx] = len(out)
            return out

        return traced

    def _wrap_table_getter(self, fget, seen: dict):
        """Record the first read on each field object as the table build.

        The build is a leaf span, so the O(q^2) helper calls it makes are
        neither traced nor slowed down.
        """
        build = self._wrap(TABLE_BUILD, fget, leaf=True)
        tracer = self

        def getter(field):
            if not tracer.recording:
                return fget(field)
            ref = seen.get(id(field))
            if ref is not None and ref() is field:
                return fget(field)
            seen[id(field)] = weakref.ref(field)
            table = build(field)
            if table is not None:
                tracer.count(TABLE_ENTRIES, 2 * len(table) ** 2)
            return table

        return getter

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for modname, fn in FUNCTIONS:
            mod = mods.get(f"{PACKAGE}.{modname}")
            orig = getattr(mod, fn, None)
            if orig is None:
                continue
            wrapped = self._wrap(f"{modname}.{fn}", orig)
            for holder in mods.values():
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        self._bindings.append((holder, attr, orig))
                        setattr(holder, attr, wrapped)
        for modname, clsname, attr in METHODS:
            cls = getattr(mods.get(f"{PACKAGE}.{modname}"), clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            name = f"{modname}.{clsname}.{attr}"
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._bind_class(cls, attr, raw, new)
        seen: dict = {}
        for modname, clsname, attr in TABLE_PROPERTIES:
            cls = getattr(mods.get(f"{PACKAGE}.{modname}"), clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if isinstance(raw, property):
                self._bind_class(cls, attr, raw,
                                 property(self._wrap_table_getter(raw.fget, seen)))

    def _bind_class(self, cls, attr, raw, new) -> None:
        self._bindings.append((cls, attr, raw))
        setattr(cls, attr, new)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._bindings):
            setattr(owner, attr, orig)
        self._bindings.clear()

    # --- recording ---

    def count(self, counter: str, amount: float = 1) -> None:
        """Add to a named counter of the operation being traced."""
        self._counters[counter] = self._counters.get(counter, 0) + amount

    @contextmanager
    def op(self, kind: str):
        """Trace one operation of the given kind and fold its spans."""
        if self.recording:
            raise RuntimeError("operations do not nest")
        self.recording = True
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - t0
            self.recording = False
            self._fold(kind, elapsed)

    def _fold(self, kind: str, elapsed_ns: int) -> None:
        size = len(self.names)
        st = self.stats.get(kind)
        if st is None:
            st = self.stats[kind] = OpStats(size)
        st.ops += 1
        st.op_ns += elapsed_ns
        for key, value in self._counters.items():
            st.counters[key] = st.counters.get(key, 0) + value
        self._counters.clear()
        if len(self._name):
            names = np.frombuffer(self._name, dtype=np.int32).astype(np.int64)
            parents = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
            dur = (np.frombuffer(self._end, dtype=np.int64)
                   - np.frombuffer(self._start, dtype=np.int64)).astype(np.float64)
            nbytes = np.frombuffer(self._bytes, dtype=np.int64).astype(np.float64)
            has_parent = parents >= 0
            pname = np.where(has_parent, names[np.maximum(parents, 0)], size)

            def total(idx, weights=None):
                return np.bincount(idx, weights=weights, minlength=size)

            st.count += total(names)
            incl = total(names, dur)
            st.incl += incl
            st.self_ns += incl - total(pname[has_parent], dur[has_parent])
            outer = self.group_of[names] != self.group_of[pname]
            st.outer_count += total(names[outer])
            st.outer_incl += total(names[outer], dur[outer])
            st.outer_bytes += total(names[outer], nbytes[outer])
            st.edges += np.bincount(pname * size + names,
                                    minlength=(size + 1) * size).reshape(size + 1, size)
        for buf in (self._name, self._parent, self._start, self._end, self._bytes):
            del buf[:]
        self._stack.clear()
