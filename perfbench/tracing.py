"""Per-layer tracing by rebinding names in the `wittlam` module namespaces.

`Tracer.install()` replaces each traced function or method with a wrapper
wherever a `wittlam` module or class holds a reference to it (a name pulled
in by `from .sympoly import universal_P` is a separate binding and is
rebound too), and `uninstall()` puts every original back.  The library's
source is never edited, and nothing stays rebound after a traced run.

A span is [name, start, end, parent index, request id, tag]; spans stay in
memory until `write()`.  Self time is a span's duration minus the durations
of its direct children.  Counted names get a bare counter and no span,
because they are called too often for a span to be cheap.
"""

import gzip
import json
import sys
import time
from collections import Counter

from wittlam import sympoly


def _p_tag(args, kwargs):
    n = args[0]
    return f"P{n}" if n not in sympoly.GLOBAL_CACHE.P else "hit"


def _pcomp_tag(args, kwargs):
    m, n = args[0], args[1]
    return f"Pcomp{m}_{n}" if (m, n) not in sympoly.GLOBAL_CACHE.Pcomp else "hit"


# (module, attribute path, span name, tag function or None)
SPANS = [
    *[("kernel", fn, "kernel", None)
      for fn in ("mul", "add_into", "mul_monomial", "scaled", "power")],
    ("sympoly", "universal_P", "sympoly.universal_P", _p_tag),
    ("sympoly", "universal_Pcomp", "sympoly.universal_Pcomp", _pcomp_tag),
    ("sympoly", "express_in_elementary", "sympoly.express_in_elementary", None),
    ("sympoly", "is_symmetric", "sympoly.is_symmetric", None),
    ("sympoly", "MPoly.evaluate", "sympoly.MPoly.evaluate", None),
    ("series", "compose", "series.compose", None),
    ("series", "revert", "series.revert", None),
    ("series", "TruncSeries.__mul__", "series.TruncSeries.mul", None),
    *[("lambda_witt", fn, f"lambda_witt.{fn}", None)
      for fn in ("lambda_mul", "lambda_op", "witt_add", "witt_mul",
                 "exp_iso", "exp_iso_inv")],
    *[("structures", fn, f"structures.{fn}", None)
      for fn in ("lambda_values", "adams_apply", "validate")],
    *[("lubin", fn, f"lubin.{fn}", None)
      for fn in ("conjugate_structure", "hasse_check")],
    *[("universal", fn, f"universal.{fn}", None)
      for fn in ("hom_from_structure", "structure_from_hom", "relation_w")],
]

# (module, attribute path, counter name)
COUNTS = [
    *[("ground", f"RingElement.{fn}", "ground.RingElement.arith_calls")
      for fn in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__")],
    ("ground", "GroundRing.div_int", "ground.div_int.calls"),
]

# Reported self times: metric name -> span name.
SELF_TIMES = {
    "kernel.self_s": "kernel",
    "sympoly.express_in_elementary.self_s": "sympoly.express_in_elementary",
    "sympoly.is_symmetric.self_s": "sympoly.is_symmetric",
    "sympoly.MPoly.evaluate.self_s": "sympoly.MPoly.evaluate",
    "series.compose.self_s": "series.compose",
    "series.revert.self_s": "series.revert",
    "series.TruncSeries.mul.self_s": "series.TruncSeries.mul",
    **{f"lambda_witt.{fn}.self_s": f"lambda_witt.{fn}"
       for fn in ("lambda_mul", "lambda_op", "witt_add", "witt_mul",
                  "exp_iso", "exp_iso_inv")},
    "structures.lambda_values.self_s": "structures.lambda_values",
    "structures.adams_apply.self_s": "structures.adams_apply",
    "structures.validate.self_s": "structures.validate",
    "lubin.conjugate_structure.self_s": "lubin.conjugate_structure",
    "lubin.hasse_check.self_s": "lubin.hasse_check",
    "universal.hom_from_structure.self_s": "universal.hom_from_structure",
    "universal.structure_from_hom.self_s": "universal.structure_from_hom",
    "universal.relation_w.self_s": "universal.relation_w",
}

# Reported call counts: metric name -> span name.
CALLS = {
    "kernel.calls": "kernel",
    "sympoly.express_in_elementary.calls": "sympoly.express_in_elementary",
    "sympoly.MPoly.evaluate.calls": "sympoly.MPoly.evaluate",
    "series.compose.calls": "series.compose",
    "series.revert.calls": "series.revert",
    "series.TruncSeries.mul.calls": "series.TruncSeries.mul",
    "structures.lambda_values.calls": "structures.lambda_values",
}

# Inclusive build time of the top rungs: metric name -> span tag.
RUNGS = {
    "sympoly.P9.build_s": "P9",
    "sympoly.Pcomp9_1.build_s": "Pcomp9_1",
    "sympoly.Pcomp3_3.build_s": "Pcomp3_3",
    "sympoly.Pcomp4_2.build_s": "Pcomp4_2",
}

SPAN_FIELDS = ("name", "start", "end", "parent", "request", "tag")


def _resolve(owner, path):
    """The object holding the attribute named by the last part of path."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._rebound = []  # (owner, attribute, original), in install order
        self.missing = set()  # traced names the library no longer has

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, tag_fn, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                   tag_fn(args, kwargs) if tag_fn else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- rebinding -----------------------------------------------------------

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "wittlam" or k.startswith("wittlam."))]
        for mod, path, name, tag in SPANS:
            self._rebind(modules, mod, path, lambda fn, n=name, t=tag: self._span(n, t, fn))
        for mod, path, name in COUNTS:
            self._rebind(modules, mod, path, lambda fn, n=name: self._count(n, fn))

    def _rebind(self, modules, mod, path, make):
        try:
            owner, attr = _resolve(sys.modules[f"wittlam.{mod}"], path)
            original = owner.__dict__[attr]
        except (KeyError, AttributeError):
            # gone from the library: nothing calls it, so its metrics read 0
            self.missing.add(f"{mod}.{path}")
            return
        wrapper = make(original)
        if isinstance(owner, type):
            # the method and its aliases, such as __rmul__ = __mul__
            targets = [(owner, a) for a, v in list(owner.__dict__.items()) if v is original]
        else:
            targets = [(m, a) for m in modules for a, v in list(vars(m).items())
                       if v is original]
        for target, a in targets:
            setattr(target, a, wrapper)
            self._rebound.append((target, a, original))

    def uninstall(self):
        while self._rebound:
            target, attr, original = self._rebound.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = Counter()
        for i, rec in enumerate(self.spans):
            out[rec[0]] += rec[2] - rec[1] - child[i]
        return out

    def metrics(self):
        """The per-layer metrics of this run (overhead_ratio excepted)."""
        selfs = self.self_times()
        calls = Counter(rec[0] for rec in self.spans)
        out = {m: selfs.get(span, 0.0) for m, span in SELF_TIMES.items()}
        out.update({m: calls.get(span, 0) for m, span in CALLS.items()})
        builds = Counter()
        build_s = Counter()
        rung_s = Counter()
        for rec in self.spans:
            if rec[5] is not None and rec[5] != "hit":
                builds[rec[0]] += 1
                build_s[rec[0]] += rec[2] - rec[1]
                rung_s[rec[5]] += rec[2] - rec[1]
        for span in ("sympoly.universal_P", "sympoly.universal_Pcomp"):
            n = calls.get(span, 0)
            out[f"{span}.builds"] = builds[span]
            out[f"{span}.build_s"] = build_s.get(span, 0.0)
            out[f"{span}.hit_ratio"] = (n - builds[span]) / n if n else 0.0
        out.update({m: rung_s.get(tag, 0.0) for m, tag in RUNGS.items()})
        for name in {n for _, _, n in COUNTS}:
            out[name] = self.counts.get(name, 0)
        return out

    def write(self, path):
        """Write every span, gzipped JSON, with the field names."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))
