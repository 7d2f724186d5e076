"""Spans around the public functions of each library layer.

A traced run rebinds every name callers resolve for a wrapped function:
class attributes such as ``PrefixMap.__mul__`` and each module-level name
bound with ``from .x import name`` anywhere in the package.  Every call
then records a span (id, name, start, end, parent id, op id).  Spans stay
in memory until the run ends; :func:`layer_metrics` turns them into the
per-layer metrics and :meth:`Tracer.write` saves them.
"""

import sys
import time
from collections import defaultdict

# (metric name, module, attribute path) for each wrapped function, by layer.
TARGETS = {
    "clopen": [
        ("canonicalize", "cantorwit.clopen", "canonicalize"),
        ("intersect", "cantorwit.clopen", "ClopenSet.intersect"),
        ("complement", "cantorwit.clopen", "ClopenSet.complement"),
        ("subset", "cantorwit.clopen", "ClopenSet.subset"),
        ("union", "cantorwit.clopen", "ClopenSet.union"),
        ("disjoint", "cantorwit.clopen", "ClopenSet.disjoint"),
    ],
    "prefixmap": [
        ("mul", "cantorwit.prefixmap", "PrefixMap.__mul__"),
        ("inverse", "cantorwit.prefixmap", "PrefixMap.inverse"),
        ("pow", "cantorwit.prefixmap", "PrefixMap.__pow__"),
        ("from_pairs", "cantorwit.prefixmap", "PrefixMap.from_pairs"),
        ("image", "cantorwit.prefixmap", "PrefixMap.image"),
        ("restrict", "cantorwit.prefixmap", "PrefixMap.restrict"),
        ("fixes_pointwise", "cantorwit.prefixmap", "PrefixMap.fixes_pointwise"),
        ("patch", "cantorwit.prefixmap", "patch"),
        ("sigma_swap", "cantorwit.prefixmap", "sigma_swap"),
    ],
    "compression": [
        ("transporter", "cantorwit.compression", "transporter"),
        ("wandering_witness", "cantorwit.compression", "wandering_witness"),
    ],
    "witnesses": [
        ("decompose2", "cantorwit.witnesses", "decompose2"),
        ("derived_conjugator", "cantorwit.witnesses", "derived_conjugator"),
        ("commutator", "cantorwit.witnesses", "commutator"),
        ("NormalWord.evaluate", "cantorwit.witnesses", "NormalWord.evaluate"),
        ("CommutatorWord.evaluate", "cantorwit.witnesses", "CommutatorWord.evaluate"),
        ("monolith_witness", "cantorwit.witnesses", "monolith_witness"),
        ("simple_witness", "cantorwit.witnesses", "simple_witness"),
        ("certificate_from_obj", "cantorwit.witnesses", "certificate_from_obj"),
        ("verify_certificate", "cantorwit.witnesses", "verify_certificate"),
    ],
    "literals": [
        ("parse_element", "cantorwit.literals", "parse_element"),
        ("parse_clopen", "cantorwit.literals", "parse_clopen"),
    ],
    "cli": [
        ("main", "cantorwit.cli", "main"),
    ],
}

BUILDERS = ("witnesses.monolith_witness", "witnesses.simple_witness")
EVALUATES = ("witnesses.NormalWord.evaluate", "witnesses.CommutatorWord.evaluate")
# Witness-layer spans that own the evaluate calls beneath them: an evaluate
# whose nearest such ancestor is a builder is the builder's self-check.
CONSTRUCTIONS = frozenset(f"witnesses.{name}" for name, _, _ in TARGETS["witnesses"]) \
    - frozenset(EVALUATES)


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, targets in TARGETS.items() for name, _, _ in targets]


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s"]
    out += ["prefixmap.mul.pairs_out_mean", "prefixmap.mul.pairs_out_max",
            "prefixmap.from_pairs.pairs_mean",
            "witnesses.selfcheck_s", "witnesses.build_s", "witnesses.letters_mean",
            "witnesses.factors_total", "witnesses.factors_distinct",
            "witnesses.factor_distinct_share", "trace.overhead"]
    return out


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    if name.endswith(".calls") or name.startswith("witnesses.factors_"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.startswith("prefixmap."):
        return "pairs"
    if name == "witnesses.letters_mean":
        return "letters"
    return "ratio"


def _pairs_out(out):
    return len(out.pairs)


def _builder_size(out):
    word, certs = out if isinstance(out, tuple) else (out, ())
    factors = [f for cert in certs for f in cert.factors]
    return len(word.letters), len(factors), len(set(factors))


SIZES = {
    "prefixmap.mul": _pairs_out,
    "prefixmap.from_pairs": _pairs_out,
    "witnesses.monolith_witness": _builder_size,
    "witnesses.simple_witness": _builder_size,
}


class Tracer:
    """Records spans while installed and switched on; use as a context
    manager.  Switch it off around work that is not measured, such as the
    benchmark's own checks."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.sizes: dict[str, list] = defaultdict(list)
        self.op = -1
        self.on = False
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        size = SIZES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.op))
            if size is not None:
                tracer.sizes[name].append(size(out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        package = [m for key, m in list(sys.modules.items())
                   if key == "cantorwit" or key.startswith("cantorwit.")]
        for layer, targets in TARGETS.items():
            for name, module, path in targets:
                owner = sys.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                span = f"{layer}.{name}"
                if outer:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__))
                    else:
                        new = self._wrap(span, raw)
                    self._saved.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                orig = getattr(owner, attr)
                new = self._wrap(span, orig)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, key, orig))
                            setattr(mod, key, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Save the spans as CSV: id,name,start,end,parent,op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _op in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, sizes) -> dict[str, float]:
    """Per-layer metrics (all but trace.overhead) from recorded spans."""
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    own = self_times(spans)
    for sid, name, *_ in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[sid]

    mul = sizes.get("prefixmap.mul", [])
    out["prefixmap.mul.pairs_out_mean"] = _mean(mul)
    out["prefixmap.mul.pairs_out_max"] = max(mul, default=0)
    out["prefixmap.from_pairs.pairs_mean"] = _mean(sizes.get("prefixmap.from_pairs", []))

    by_id = {s[0]: s for s in spans}
    selfcheck = 0.0
    for sid, name, start, end, parent, _op in spans:
        if name not in EVALUATES:
            continue
        owner = parent
        while owner >= 0 and by_id[owner][1] not in CONSTRUCTIONS:
            if by_id[owner][1] in EVALUATES:
                break
            owner = by_id[owner][4]
        if owner >= 0 and by_id[owner][1] in BUILDERS:
            selfcheck += end - start
    builders = 0.0
    for sid, name, start, end, parent, _op in spans:
        if name in BUILDERS:
            builders += end - start
    out["witnesses.selfcheck_s"] = selfcheck
    out["witnesses.build_s"] = builders - selfcheck

    built = sizes.get("witnesses.monolith_witness", []) + sizes.get("witnesses.simple_witness", [])
    out["witnesses.letters_mean"] = _mean([letters for letters, _, _ in built])
    total = sum(t for _, t, _ in built)
    distinct = sum(d for _, _, d in built)
    out["witnesses.factors_total"] = total
    out["witnesses.factors_distinct"] = distinct
    out["witnesses.factor_distinct_share"] = distinct / total if total else 0.0
    return out
