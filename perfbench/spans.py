"""Tracing for the benchmark's traced rounds.

`install` wraps the pdseq functions that the per-layer metrics name, from
outside the package: each wrapper records a span (name, start, end, parent)
in memory, and every module that imported the function by name gets the
wrapper too.  Work in functions that are not wrapped counts toward the
nearest wrapped caller.  A span's self time is its duration minus the time
its child spans cover.

Only the functions below are wrapped, not every public one: per-call
wrapping of the per-letter automaton helpers would cost more than the work
they do.  A name that a later version of pdseq no longer has is skipped,
and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, qualified name inside it); the span is named "<module>.<qualname>"
WRAPPED = (
    ("series", "reversion"),
    ("series", "compose"),
    ("series", "mul"),
    ("series", "TruncatedSeries.inverse"),
    ("series", "TruncatedSeries.from_json"),
    ("series", "TruncatedSeries.to_json"),
    ("series", "power_relation_search"),
    ("series", "relation_residual"),
    ("kernel", "rank_profile"),
    ("kernel", "compute_kernel"),
    ("kernel", "synthesize_dfao"),
    ("catalog", "NamedSequence.prefix"),
    ("catalog", "inverse_pd_ones_below"),
    ("catalog", "cross_check"),
    ("catalog", "bfile_lines"),
    ("automata", "evaluate_range"),
    ("automata", "minimize"),
    ("automata", "count_length_n"),
    ("numeration", "automatic_eval"),
    ("numeration", "Ans.rep"),
    ("numeration", "Zeckendorf.rep"),
    ("morphisms", "fixed_point_prefix"),
    ("morphisms", "morphic_word_prefix"),
    ("morphisms", "pf_eigenvalue"),
    ("cli", "cmd_check"),
    ("cli", "cmd_invert"),
    ("cli", "cmd_seq"),
    ("cli", "cmd_kernel"),
)
LAYERS = ("series", "kernel", "catalog", "automata", "numeration", "morphisms", "checks", "cli")


def unit(metric):
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = []
        self.counters = defaultdict(int)

    def wrap(self, name, fn, size=None):
        """fn recording one span per call; size(result) adds to the counter '<name>.size'."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                counters[name + ".size"] += size(result)
            return result

        return wrapper

    def write(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters, **extra}, fh)


def _rebind(original, replacement):
    """Point every pdseq module global that holds `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pdseq" or mod_name.startswith("pdseq."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(tracer):
    import pdseq.catalog
    import pdseq.checks

    sizes = {"series.reversion": lambda result: result.precision}
    for module, qualname in WRAPPED:
        mod = sys.modules.get(f"pdseq.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            continue
        name = f"{module}.{qualname}"
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
        elif owner is mod:
            _rebind(raw, tracer.wrap(name, raw, sizes.get(name)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw))

    checks = getattr(pdseq.checks, "CHECKS", {})
    for check_id, (description, fn) in list(checks.items()):
        checks[check_id] = (description, tracer.wrap(f"checks.{check_id}", fn))

    # a call of a sequence's builder is a cache miss of NamedSequence.prefix
    for seq_name in pdseq.catalog.sequence_names():
        seq = pdseq.catalog.sequence(seq_name)
        seq.build = _counting_build(tracer.counters, seq.build)


def _counting_build(counters, build):
    @functools.wraps(build)
    def counted(*args, **kwargs):
        data = build(*args, **kwargs)
        counters["catalog.prefix_builds"] += 1
        counters["catalog.built_terms"] += len(data)
        return data

    return counted


def self_times(tracer):
    """Per span name: (calls, summed duration, summed self time)."""
    child = [0.0] * len(tracer.spans)
    for _, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for (nid, start, end, _), covered in zip(tracer.spans, child):
        s = stats[tracer.names[nid]]
        s[0] += 1
        s[1] += end - start
        s[2] += end - start - covered
    return stats


def layer_metrics(tracer, wall_s, output_bytes, check_ids):
    """The per-layer metrics of one traced round (trace.overhead_s is added by the caller)."""
    stats = self_times(tracer)

    def self_s(*names):
        return sum(stats[n][2] for n in names if n in stats)

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats)

    c = tracer.counters
    reversion_total = stats["series.reversion"][1] if "series.reversion" in stats else 0.0
    prefix_calls = calls("catalog.NamedSequence.prefix")
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    check_spans = [f"checks.{i}" for i in check_ids]
    m = {
        "series.reversion_s": self_s("series.reversion"),
        "series.reversion_calls": calls("series.reversion"),
        "series.coeffs_per_s": c["series.reversion.size"] / reversion_total if reversion_total else 0.0,
        "series.compose_s": self_s("series.compose"),
        "series.compose_calls": calls("series.compose"),
        "series.mul_s": self_s("series.mul"),
        "series.mul_calls": calls("series.mul"),
        "series.inverse_s": self_s("series.TruncatedSeries.inverse"),
        "series.json_s": self_s("series.TruncatedSeries.from_json", "series.TruncatedSeries.to_json"),
        "series.relation_search_s": self_s("series.power_relation_search"),
        "series.relation_residual_s": self_s("series.relation_residual"),
        "kernel.rank_profile_s": self_s("kernel.rank_profile"),
        "kernel.rank_profile_calls": calls("kernel.rank_profile"),
        "kernel.compute_kernel_s": self_s("kernel.compute_kernel"),
        "kernel.synthesize_dfao_s": self_s("kernel.synthesize_dfao"),
        "catalog.prefix_s": self_s("catalog.NamedSequence.prefix"),
        "catalog.prefix_calls": prefix_calls,
        "catalog.prefix_builds": c["catalog.prefix_builds"],
        "catalog.prefix_hit_ratio": max(0.0, 1 - c["catalog.prefix_builds"] / prefix_calls) if prefix_calls else 0.0,
        "catalog.built_terms": c["catalog.built_terms"],
        "catalog.ones_below_s": self_s("catalog.inverse_pd_ones_below"),
        "catalog.cross_check_s": self_s("catalog.cross_check"),
        "catalog.bfile_lines_s": self_s("catalog.bfile_lines"),
        "automata.evaluate_range_s": self_s("automata.evaluate_range"),
        "automata.minimize_s": self_s("automata.minimize"),
        "automata.count_length_n_s": self_s("automata.count_length_n"),
        "numeration.automatic_eval_s": self_s("numeration.automatic_eval"),
        "numeration.automatic_eval_calls": calls("numeration.automatic_eval"),
        "numeration.rep_s": self_s("numeration.Ans.rep", "numeration.Zeckendorf.rep"),
        "numeration.rep_calls": calls("numeration.Ans.rep", "numeration.Zeckendorf.rep"),
        "morphisms.word_prefix_s": self_s("morphisms.fixed_point_prefix", "morphisms.morphic_word_prefix"),
        "morphisms.pf_eigenvalue_s": self_s("morphisms.pf_eigenvalue"),
    }
    for check_id, span in zip(check_ids, check_spans):
        m[f"checks.{check_id}_s"] = stats[span][1] if span in stats else 0.0
    for command in ("check", "invert", "seq", "kernel"):
        m[f"cli.{command}_s"] = self_s(f"cli.cmd_{command}")
    m["cli.output_mb"] = output_bytes / 2**20
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s[2] for n, s in stats.items() if n.startswith(layer + "."))
    m["trace.covered_share"] = roots / wall_s
    m["trace.check_covered_share"] = sum(stats[s][1] for s in check_spans if s in stats) / wall_s
    return m
