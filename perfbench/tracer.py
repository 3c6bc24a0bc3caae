"""Outside-in span tracer for the coclass layers.

The tracer wraps public functions where their callers look them up
(module attributes and class attributes), so nothing under ``src/`` needs
to know it exists.  Each call of a wrapped function becomes one span:
name, start, end, parent span, run id, plus a few numbers read from the
call's arguments and result (shapes, ranks, orders).  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time

from coclass import fpmat, groups, intmat, kernels, lattice
from coclass import resolution as res
from coclass import spacegroup as sg


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``attrs(args, kwargs, result)`` returns a dict of numbers stored on
        the span; it runs after the span has ended.
        """
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "name": name, "run": run_id}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


# ---------------------------------------------------------------------------
# attribute extractors: counts computed from call arguments and results

def _shape(m):
    return {"rows": int(m.rows), "cols": int(m.cols)}


def _kernel_attrs(args, kwargs, result):
    return {**_shape(args[0]), "dim": int(result.cols)}


def _rref_attrs(args, kwargs, result):
    return {**_shape(args[0]), "rank": len(result[1])}


def _result_shape(args, kwargs, result):
    return _shape(result)


def _rref_u8_attrs(args, kwargs, result):
    rows, cols = args[0].shape
    return {"rows": int(rows), "cols": int(cols), "rank": len(result)}


def _rref_b2_attrs(args, kwargs, result):
    rows, words = args[0].shape
    return {"rows": int(rows), "words": int(words), "rank": len(result)}


def _matmul_u8_attrs(args, kwargs, result):
    n, k = args[0].shape
    return {"flops": 2 * int(n) * int(k) * int(args[1].shape[1])}


def _matmul_b2_attrs(args, kwargs, result):
    n = args[0].shape[0]
    return {"flops": 2 * int(n) * int(args[2]) * 64 * int(args[1].shape[1])}


def _context_attrs(args, kwargs, result):
    return {"order": int(args[1].order)}


def _group_attrs(group, max_degree):
    desc = group.descriptor
    return {"order": int(group.order), "level": int(desc.get("i", 0)),
            "maxDegree": int(max_degree)}


def _resolution_attrs(args, kwargs, result):
    group = args[0]
    return {**_group_attrs(group, args[1]),
            "key": res.resolution_cache_key(group.descriptor)}


def _betti_attrs(args, kwargs, result):
    return _group_attrs(args[0], args[1])


def _save_attrs(args, kwargs, result):
    resolution = args[0]
    written = 0
    for mat in resolution.boundaries:
        rowbytes = (mat.cols + 7) // 8 if mat.p == 2 else mat.cols
        written += 22 + mat.rows * rowbytes  # FPMX header + payload
    return {"key": resolution.key, "maxDegree": int(resolution.max_degree),
            "bytes": written}


def _enumerate_attrs(args, kwargs, result):
    return {"elements": len(result)}


def install(tracer):
    """Wrap every traced entry point of the coclass layers in place."""

    def patch(owners, attr, name, attrs=None):
        owners = owners if isinstance(owners, tuple) else (owners,)
        raw = owners[0].__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(raw.__func__, name, attrs))
        else:
            wrapped = tracer.wrap(raw, name, attrs)
        for owner in owners:
            setattr(owner, attr, wrapped)

    # kernels: fpmat calls them as kernels.<name>
    patch(kernels, "rref_u8", "kernels.rref_u8", _rref_u8_attrs)
    patch(kernels, "rref_b2", "kernels.rref_b2", _rref_b2_attrs)
    patch(kernels, "matmul_u8", "kernels.matmul_u8", _matmul_u8_attrs)
    patch(kernels, "matmul_b2", "kernels.matmul_b2", _matmul_b2_attrs)

    fp = fpmat.FpMatrix
    patch(fp, "kernel", "fpmat.kernel", _kernel_attrs)
    patch(fp, "rref", "fpmat.rref", _rref_attrs)
    patch(fp, "__matmul__", "fpmat.matmul", _result_shape)
    patch(fp, "__sub__", "fpmat.sub")
    patch(fp, "row_select", "fpmat.row_select")
    patch(fp, "hstack", "fpmat.hstack", _result_shape)
    patch(fp, "from_dense", "fpmat.from_dense", _result_shape)
    patch(fp, "to_dense", "fpmat.to_dense")

    # intmat: hnf is looked up in intmat and lattice, snf in intmat and
    # spacegroup
    patch((intmat, lattice), "hnf", "intmat.hnf")
    patch((intmat, sg), "snf", "intmat.snf")

    # lattice functions as spacegroup imported them
    for fn in ("lattice_from_columns", "lattice_contains", "lattice_index",
               "scale_lattice", "apply_matrix"):
        patch(sg, fn, "lattice." + fn)

    patch((sg, res), "quotient_group", "spacegroup.quotient_group")
    patch((sg, res), "b3r", "spacegroup.b3r")
    patch(sg, "filtration_lattices", "spacegroup.filtration_lattices")
    patch(sg.QuotientCoords, "__init__", "spacegroup.QuotientCoords")
    patch(sg, "verify_filtration", "spacegroup.verify_filtration")

    patch((groups, res), "enumerate_group", "groups.enumerate_group",
          _enumerate_attrs)

    patch(res.GroupAlgebraContext, "__init__", "resolution.GroupAlgebraContext",
          _context_attrs)
    patch(res, "minimal_resolution", "resolution.minimal_resolution",
          _resolution_attrs)
    patch(res, "save_resolution", "resolution.save_resolution", _save_attrs)
    patch(res, "betti_numbers", "resolution.betti_numbers", _betti_attrs)
    patch(res, "verify_theorem", "resolution.verify_theorem")
