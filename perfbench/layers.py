"""Per-layer metrics and per-degree rows derived from one traced run.

Definitions used throughout:

* a span's duration is ``end - start``; its self time is the duration
  minus the durations of its child spans (children of one span run one
  after another, so they never overlap);
* a stage is a stretch of a ``minimal_resolution`` span between child
  spans: for each degree the kernel of ``d_n`` (``FpMatrix.kernel``), the
  radical build (from the kernel's end to the head ``rref``), the head
  elimination (that ``rref``), assembly (from the head's end to the
  composite check) and validation (the composite ``@`` up to the next
  degree);
* counts come from call arguments and results only, so two runs of the
  same code must give identical counts.
"""

from __future__ import annotations

from collections import defaultdict

# counts that must repeat exactly between traced runs of the same code
COUNTS = (
    "kernels.rref_u8_cell_updates",
    "kernels.rref_b2_word_updates",
    "kernels.matmul_flops",
    "fpmat.from_dense_temp_bytes_max",
    "resolution.context_products",
    "groups.elements",
    "resolution.head_cells",
    "resolution.head_kernel_cols",
    "resolution.head_stacked_cols",
    "resolution.cache_hits",
    "resolution.cache_misses",
    "resolution.degrees_computed",
    "resolution.degrees_new",
    "resolution.extend_degrees_computed",
    "resolution.extend_degrees_new",
    "resolution.cache_bytes_written",
    "intmat.hnf_calls",
)

TIMES = (
    "kernels.rref_u8_s",
    "kernels.rref_b2_s",
    "kernels.matmul_s",
    "resolution.validate_s",
    "fpmat.kernel_self_s",
    "fpmat.convert_s",
    "resolution.context_s",
    "groups.enumerate_s",
    "resolution.kernel_stage_s",
    "resolution.radical_build_s",
    "resolution.head_stage_s",
    "resolution.assembly_s",
    "resolution.cache_save_s",
    "intmat.hnf_s",
    "intmat.snf_s",
    "lattice.self_s",
    "spacegroup.build_s",
    "spacegroup.verify_filtration_self_s",
    "trace.unattributed_s",
)

STAGES = ("kernel_s", "radical_s", "head_s", "assembly_s", "validate_s")
_BUILD = {"spacegroup.quotient_group", "spacegroup.b3r",
          "spacegroup.filtration_lattices", "spacegroup.QuotientCoords"}


def _dur(span):
    return span["end"] - span["start"]


class _Trace:
    def __init__(self, spans):
        self.spans = spans
        self.kids = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.kids[s["parent"]].append(s)

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def ancestors(self, span):
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
            yield span

    def total(self, *names):
        """Summed duration of the outermost spans with these names."""
        return sum(_dur(s) for s in self.named(*names)
                   if not any(a["name"] in names for a in self.ancestors(s)))

    def self_time(self, span):
        return _dur(span) - sum(_dur(c) for c in self.kids[span["id"]])

    def self_total(self, *names):
        return sum(self.self_time(s) for s in self.named(*names))

    def attr_sum(self, name, fn):
        return sum(fn(s["attrs"]) for s in self.named(name))

    def root(self, span):
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span


def degree_rows(trace):
    """One row per degree computed by each ``minimal_resolution`` span.

    Row ``n`` holds the shape of ``d_n`` (``d_0`` is the augmentation
    row), dim K = dim ker d_n, the stacked radical/head matrix and
    beta_{n+1}, plus the seconds spent in each stage.
    """
    roots = [s["id"] for s in trace.spans if s["parent"] is None]
    rows = []
    for res in trace.named("resolution.minimal_resolution"):
        kids = trace.kids[res["id"]]
        kernels = [k for k, s in enumerate(kids) if s["name"] == "fpmat.kernel"]
        first = res["attrs"]["maxDegree"] - len(kernels)
        for j, k in enumerate(kernels):
            stop = kernels[j + 1] if j + 1 < len(kernels) else len(kids)
            end = kids[stop]["start"] if stop < len(kids) else res["end"]
            kern = kids[k]
            step = kids[k + 1:stop]
            head = next((s for s in step if s["name"] == "fpmat.rref"), None)
            after = step[step.index(head) + 1:] if head else []
            nxt = next((s for s in after if s["name"] == "fpmat.from_dense"), None)
            if nxt is None:  # the degree raised before its boundary was built
                break
            check = next((s for s in after if s["name"] == "fpmat.matmul"), None)
            assembled = check["start"] if check else end
            rows.append({
                "call": roots.index(trace.root(res)["id"]),
                "level": res["attrs"]["level"],
                "order": res["attrs"]["order"],
                "n": first + j,
                "d_rows": kern["attrs"]["rows"],
                "d_cols": kern["attrs"]["cols"],
                "dim_k": kern["attrs"]["dim"],
                "stacked_rows": head["attrs"]["rows"],
                "stacked_cols": head["attrs"]["cols"],
                "beta_next": nxt["attrs"]["cols"] // res["attrs"]["order"],
                "kernel_s": _dur(kern),
                "radical_s": head["start"] - kern["end"],
                "head_s": _dur(head),
                "assembly_s": assembled - head["end"],
                "validate_s": end - check["start"] if check else 0.0,
            })
    return rows


def _cache_counts(trace):
    resolved = set()
    for res in trace.named("resolution.minimal_resolution"):
        resolved.update(a["id"] for a in trace.ancestors(res))
    betti = trace.named("resolution.betti_numbers")
    misses = sum(1 for s in betti if s["id"] in resolved)
    out = {"resolution.cache_hits": len(betti) - misses,
           "resolution.cache_misses": misses}
    saved = {}
    computed = new = ext_computed = ext_new = 0
    events = trace.named("resolution.minimal_resolution", "resolution.save_resolution")
    for s in sorted(events, key=lambda s: s["start"]):
        a = s["attrs"]
        if s["name"] == "resolution.save_resolution":
            saved[a["key"]] = max(saved.get(a["key"], 0), a["maxDegree"])
            continue
        done = sum(1 for c in trace.kids[s["id"]] if c["name"] == "fpmat.kernel")
        prior = saved.get(a["key"], 0)
        fresh = max(0, a["maxDegree"] - prior)
        computed += done
        new += fresh
        if prior:
            ext_computed += done
            ext_new += fresh
    out.update({"resolution.degrees_computed": computed,
                "resolution.degrees_new": new,
                "resolution.extend_degrees_computed": ext_computed,
                "resolution.extend_degrees_new": ext_new})
    return out


def derive(spans, wall):
    """``(times, counts, rows)`` for one traced repetition of ``wall`` s."""
    t = _Trace(spans)
    rows = degree_rows(t)
    times = {
        "kernels.rref_u8_s": t.total("kernels.rref_u8"),
        "kernels.rref_b2_s": t.total("kernels.rref_b2"),
        "kernels.matmul_s": t.total("kernels.matmul_u8", "kernels.matmul_b2"),
        "resolution.validate_s": sum(r["validate_s"] for r in rows),
        "fpmat.kernel_self_s": t.self_total("fpmat.kernel"),
        "fpmat.convert_s": t.self_total("fpmat.from_dense", "fpmat.to_dense",
                                        "fpmat.hstack"),
        "resolution.context_s": t.total("resolution.GroupAlgebraContext"),
        "groups.enumerate_s": t.total("groups.enumerate_group"),
        "resolution.kernel_stage_s": sum(r["kernel_s"] for r in rows),
        "resolution.radical_build_s": sum(r["radical_s"] for r in rows),
        "resolution.head_stage_s": sum(r["head_s"] for r in rows),
        "resolution.assembly_s": sum(r["assembly_s"] for r in rows),
        "resolution.cache_save_s": t.total("resolution.save_resolution"),
        "intmat.hnf_s": t.total("intmat.hnf"),
        "intmat.snf_s": t.total("intmat.snf"),
        "lattice.self_s": sum(t.self_time(s) for s in spans
                              if s["name"].startswith("lattice.")),
        "spacegroup.build_s": t.total(*_BUILD),
        "spacegroup.verify_filtration_self_s":
            t.self_total("spacegroup.verify_filtration"),
        "trace.unattributed_s": wall - sum(_dur(s) for s in spans
                                           if s["parent"] is None),
    }
    counts = {
        "kernels.rref_u8_cell_updates": t.attr_sum(
            "kernels.rref_u8", lambda a: a["rows"] * a["cols"] * a["rank"]),
        "kernels.rref_b2_word_updates": t.attr_sum(
            "kernels.rref_b2", lambda a: a["rows"] * a["words"] * a["rank"]),
        "kernels.matmul_flops": t.attr_sum("kernels.matmul_u8", lambda a: a["flops"])
        + t.attr_sum("kernels.matmul_b2", lambda a: a["flops"]),
        "fpmat.from_dense_temp_bytes_max": max(
            (s["attrs"]["rows"] * s["attrs"]["cols"] * 8
             for s in t.named("fpmat.from_dense")), default=0),
        "resolution.context_products": t.attr_sum(
            "resolution.GroupAlgebraContext", lambda a: a["order"] ** 2),
        "groups.elements": t.attr_sum("groups.enumerate_group",
                                      lambda a: a["elements"]),
        "resolution.head_cells": sum(r["stacked_rows"] * r["stacked_cols"]
                                     for r in rows),
        "resolution.head_kernel_cols": sum(r["dim_k"] for r in rows),
        "resolution.head_stacked_cols": sum(r["stacked_cols"] for r in rows),
        "resolution.cache_bytes_written": t.attr_sum(
            "resolution.save_resolution", lambda a: a["bytes"]),
        "intmat.hnf_calls": len(t.named("intmat.hnf")),
        **_cache_counts(t),
    }
    return times, counts, rows


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(times, counts, overhead_ratio):
    """The benchmark's per-layer metrics from aggregated times and counts.

    A ratio whose base is zero (no such work in the workload) reads 0.
    """
    out = {name: times[name] for name in TIMES}
    out.update({name: counts[name] for name in COUNTS})
    out["kernels.rref_u8_gups"] = _ratio(counts["kernels.rref_u8_cell_updates"],
                                         times["kernels.rref_u8_s"]) / 1e9
    out["resolution.head_useful_ratio"] = _ratio(
        counts["resolution.head_kernel_cols"], counts["resolution.head_stacked_cols"])
    out["resolution.extend_useful_ratio"] = _ratio(
        counts["resolution.extend_degrees_new"],
        counts["resolution.extend_degrees_computed"])
    out["trace.overhead_ratio"] = overhead_ratio
    return out
