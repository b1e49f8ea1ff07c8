"""Span tracing of the nonbasis layers, installed from outside the package.

`Tracer.install()` replaces each traced public function at every module
attribute that refers to it (so `sumset.dilate_or`, imported by name from
`intset`, is wrapped as well as `intset.dilate_or`) and at the class
attribute for methods.  Each call records a span (id, name, parent id,
start, end) in memory, plus call counts, self time (duration minus the
time of wrapped child calls) and a few per-layer work counters.
`write_spans()` dumps the spans when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name).  Names with a dot in the attribute are
# methods, wrapped on the class.  Both h-fold entry points share one name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("report", "render_json", "report.render_json"),
    ("report", "catalog_checks", "report.catalog_checks"),
    ("report", "escape_checks", "report.escape_checks"),
    ("report", "augment_checks", "report.augment_checks"),
    ("report", "lemma_checks", "report.lemma_checks"),
    ("report", "dichotomy_checks", "report.dichotomy_checks"),
    ("report", "uniqueness_check", "report.uniqueness_check"),
    ("verify", "complement_catalog", "verify.complement_catalog"),
    ("verify", "classify", "verify.classify"),
    ("verify", "decide_kX", "verify.decide_kX"),
    ("verify", "exceptional_bound", "verify.exceptional_bound"),
    ("verify", "escape_check", "verify.escape_check"),
    ("verify", "augment_check", "verify.augment_check"),
    ("verify", "lemma_basis_check", "verify.lemma_basis_check"),
    ("families", "Family.x_spec", "families.Family.x_spec"),
    ("gapset", "is_member", "gapset.is_member"),
    ("gapset", "gap_radius", "gapset.gap_radius"),
    ("intset", "materialize", "intset.materialize"),
    ("intset", "DenseSet.members", "intset.DenseSet.members"),
    ("intset", "dilate_or", "intset.dilate_or"),
    ("sumset", "hfold_exact_bounded_below", "sumset.hfold"),
    ("sumset", "hfold_truncated", "sumset.hfold"),
    ("sumset", "pairwise_sum", "sumset.pairwise_sum"),
    ("sumset", "arith_chains", "sumset.arith_chains"),
    ("sumset", "witness", "sumset.witness"),
    ("sumset", "multiplicity_pair", "sumset.multiplicity_pair"),
)

# Work counters: span name -> (stat, value of one call from (args, result)).
WORK = {
    "intset.materialize": ("bits", lambda args, res: res.window.width),
    "sumset.hfold": ("target_bits", lambda args, res: res.target.width),
    "sumset.arith_chains": ("chains", lambda args, res: len(res)),
    "intset.DenseSet.members": ("bits", lambda args, res: args[0].window.width),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []
        self.work: dict[str, int] = {name: 0 for name in WORK}
        self.hfold_in_escape = 0
        self.stack: list[list] = []  # [span id, child time]
        self.next_id = [0]
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            for col in (self.calls, self.active):
                col.append(0)
            for col in (self.incl, self.self_time):
                col.append(0.0)
        return self.names.index(name)

    def _wrap(self, fn, name: str):
        idx = self._index(name)
        stack, next_id, active = self.stack, self.next_id, self.active
        calls, incl, self_time = self.calls, self.incl, self.self_time
        sid_col, name_col, parent_col = self.span_id, self.span_name, self.span_parent
        start_col, end_col = self.span_start, self.span_end
        perf = time.perf_counter
        work = WORK.get(name)
        counts_escape_folds = name == "sumset.hfold"
        escape_idx = self._index("verify.escape_check")

        def traced(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            active[idx] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[idx] -= 1
                d = t1 - t0
                calls[idx] += 1
                incl[idx] += d
                self_time[idx] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                sid_col.append(sid)
                name_col.append(idx)
                parent_col.append(parent)
                start_col.append(t0)
                end_col.append(t1)
            if work is not None:
                self.work[name] += work[1](args, result)
            if counts_escape_folds and active[escape_idx]:
                self.hfold_in_escape += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target wherever a nonbasis module refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "nonbasis" or k.startswith("nonbasis.")]
        for modname, attr, name in TARGETS:
            mod = sys.modules[f"nonbasis.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], name))
                continue
            original = getattr(mod, attr)
            traced = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def stat(self, name: str) -> dict:
        i = self._index(name)
        return {"calls": self.calls[i], "self_s": self.self_time[i], "incl_s": self.incl[i]}

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, by their benchmark names."""
        out: dict[str, float] = {}
        for name in dict.fromkeys(n for _, _, n in TARGETS):
            st = self.stat(name)
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.self_s"] = st["self_s"]
        for name, (stat, _) in WORK.items():
            out[f"{name}.{stat}"] = self.work[name]
        classify = self.stat("verify.classify")
        out["verify.classify.us_per_call"] = (
            1e6 * classify["incl_s"] / classify["calls"] if classify["calls"] else 0.0
        )
        out["gapset.gap_radius.per_classify"] = (
            self.stat("gapset.gap_radius")["calls"] / classify["calls"] if classify["calls"] else 0.0
        )
        escapes = self.stat("verify.escape_check")["calls"]
        out["verify.escape_check.hfold_per_call"] = (
            self.hfold_in_escape / escapes if escapes else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        """One JSON header line, then the five span columns as raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_id),
            "columns": [
                ["id", "q"], ["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.span_id, self.span_name, self.span_parent, self.span_start, self.span_end):
                col.tofile(fh)
