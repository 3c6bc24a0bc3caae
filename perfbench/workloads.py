"""The benchmark's workloads and the reports each call must print.

A workload is a list of ``coclass`` CLI calls run in order in one fresh
process; theorem calls share that process's private cache directory.
Each call comes with the exact stdout it must produce.  The expected
reports are written out from the known Betti numbers, not captured from
a run, so a fast wrong answer fails the benchmark.
"""

from __future__ import annotations

import json


def _theorem_report(p, x, family, max_degree, levels):
    return {
        "identity": "theorem",
        "p": p,
        "x": x,
        "family": family,
        "maxDegree": max_degree,
        "levels": [{"i": i, "order": order, "betti": betti[:max_degree + 1]}
                   for i, (order, betti) in enumerate(levels)],
        "allEqual": True,
    }


_FILTRATION_CHECKS = (
    "base-level-is-p-times-ambient",
    "successive-index-p",
    "strict-containment",
    "point-shift-maps-level-to-next",
    "commutator-image-is-next-level",
    "p-scaling-climbs-dim-levels",
    "point-matrix-order",
    "cyclotomic-annihilation",
    "commutator-determinant",
    "commutator-commutes-with-point-matrix",
    "scaled-inverse-integral",
    "projection-commutes-with-commutator",
)


def _filtration_report(p, x, i_max, seed, trials=200):
    checks = [{"name": name, "passed": True} for name in _FILTRATION_CHECKS]
    checks[8]["detail"] = p  # det(I - C) for the cyclotomic companion matrix
    return {
        "identity": "filtration",
        "p": p,
        "x": x,
        "iMax": i_max,
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "failures": 0,
    }


_B3R_BETTI = [1, 2, 4, 6, 7, 8, 9, 10]
_P2X2_BETTI = [1, 2, 4, 6, 9, 12, 16, 20]


def _odd_deep(seed):
    levels = [(27, _B3R_BETTI), (81, _B3R_BETTI)]
    return [(["theorem", "--family", "b3r", "--r-max", "4", "--max-degree", "7"],
             _theorem_report(3, 1, "b3r", 7, levels))]


def _gf2_session(seed):
    levels = [(16 << i, _P2X2_BETTI) for i in range(4)]
    base = ["theorem", "--p", "2", "--x", "2", "--i-max", "3", "--max-degree"]
    return [
        (base + ["6"], _theorem_report(2, 2, None, 6, levels)),  # cold
        (base + ["7"], _theorem_report(2, 2, None, 7, levels)),  # extends degree 6
        (base + ["7"], _theorem_report(2, 2, None, 7, levels)),  # cache hit
    ]


def _big_order(seed):
    levels = [(27 * 3 ** i, [1, 2, 4]) for i in range(4)]
    return [(["theorem", "--p", "3", "--x", "1", "--i-max", "3", "--max-degree", "2"],
             _theorem_report(3, 1, None, 2, levels))]


def _lattice_chain(seed):
    return [(["filtration", "--p", "3", "--x", "3", "--i-max", "1",
              "--seed", str(seed)],
             _filtration_report(3, 3, 1, seed))]


WORKLOADS = {
    "odd-deep": _odd_deep,
    "gf2-session": _gf2_session,
    "big-order": _big_order,
    "lattice-chain": _lattice_chain,
}


def calls(name, seed):
    """``[(argv, expected_stdout)]`` for one repetition of a workload.

    Only ``lattice-chain`` takes input from the seed (its random trial
    vectors); the theorem workloads are fixed computations.
    """
    return [(argv, json.dumps(report, sort_keys=True) + "\n")
            for argv, report in WORKLOADS[name](seed)]


def uses_cache(argv):
    return argv[0] == "theorem"
