"""Batch command-line front end.

Subcommands construct groups, verify the filtration identities, compute
Betti numbers, run the theorem and equivariance verifications, and
manage the resolution cache.  Reports are canonical JSON (or CSV rows
for Betti tables); identical configuration and seed give byte-identical
output.

Exit codes: 0 verified, 1 verification failed, 2 usage error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cochain as co
from . import resolution as res
from . import spacegroup as sg
from .errors import BudgetError
from .groups import enumerate_group, order_census


def _default_cache_dir():
    env = os.environ.get("COCLASS_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "coclass")


def _emit_json(report):
    print(json.dumps(report, sort_keys=True))


def _emit_betti_csv(rows):
    print("p,x,i,n,beta_n")
    for p, x, i, n, beta in rows:
        print(f"{p},{x},{i},{n},{beta}")


def _build_group(args):
    budget = args.budget_order if args.budget_order else sg.DEFAULT_ENUM_BUDGET
    if args.family == "b3r":
        if args.r is None or (args.p, args.x, args.i) != (None, None, None):
            raise ValueError("--family b3r takes --r and none of --p, --x, --i")
        return sg.b3r(args.r, budget=budget)
    if args.r is not None:
        raise ValueError("--r needs --family b3r")
    if args.p is None or args.x is None or args.i is None:
        raise ValueError("--p, --x and --i are required (or use --family b3r --r)")
    return sg.quotient_group(sg.SpaceGroupParams(args.p, args.x), args.i,
                             budget=budget)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_group(args):
    group = _build_group(args)
    report = dict(group.descriptor)
    if args.action == "census":
        census = order_census(group, budget=args.budget_order
                              or sg.DEFAULT_ENUM_BUDGET)
        report["census"] = {str(k): v for k, v in sorted(census.items())}
    elif args.action == "export":
        table = enumerate_group(group, budget=args.budget_order
                                or sg.DEFAULT_ENUM_BUDGET)
        report["generators"] = list(table.generators)  # tuples serialize as lists
        report["enumerated"] = len(table)
    _emit_json(report)
    return 0


def _cmd_filtration(args):
    report = sg.verify_filtration(
        sg.SpaceGroupParams(args.p, args.x), args.i_max,
        trials=args.trials, seed=args.seed)
    _emit_json(report)
    if report["failures"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print("failed invariants: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def _cmd_betti(args):
    group = _build_group(args)
    betti = res.betti_numbers(
        group, args.max_degree,
        cache_dir=args.cache_dir,
        budget_order=args.budget_order or res.RESOLUTION_ORDER_BUDGET,
        budget_matrix=args.budget_matrix or res.RESOLUTION_MATRIX_BUDGET)
    level = group.descriptor.get("i", 0)
    p, x = group.descriptor["p"], group.descriptor.get("x", 1)
    if args.format == "csv":
        _emit_betti_csv([(p, x, level, n, b) for n, b in enumerate(betti)])
    else:
        _emit_json({
            "identity": "betti",
            "p": p,
            "x": x,
            "i": level,
            "family": args.family,
            "order": group.order,
            "maxDegree": args.max_degree,
            "betti": betti,
        })
    return 0


def _cmd_theorem(args):
    if args.family == "b3r":
        if args.r_max is None or (args.p, args.x, args.i_max) != (None, None, None):
            raise ValueError("--family b3r takes --r-max and none of --p, --x, --i-max")
        i_max = args.r_max - 3
        params = None  # verify_theorem fixes p = 3, x = 1 for the family
    else:
        if args.r_max is not None:
            raise ValueError("--r-max needs --family b3r")
        if args.p is None or args.x is None or args.i_max is None:
            raise ValueError("--p, --x and --i-max are required "
                             "(or use --family b3r --r-max)")
        i_max = args.i_max
        params = sg.SpaceGroupParams(args.p, args.x)
    report = res.verify_theorem(
        params, i_max, args.max_degree, family=args.family,
        cache_dir=args.cache_dir,
        budget_order=args.budget_order or res.RESOLUTION_ORDER_BUDGET,
        budget_matrix=args.budget_matrix or res.RESOLUTION_MATRIX_BUDGET)
    if args.format == "csv":
        rows = []
        for lv in report["levels"]:
            for n, b in enumerate(lv["betti"]):
                rows.append((report["p"], report["x"], lv["i"], n, b))
        _emit_betti_csv(rows)
    else:
        _emit_json(report)
    return 0 if report["allEqual"] else 1


def _cmd_equivariance(args):
    params = sg.SpaceGroupParams(args.p, args.x)
    if args.which == "eta":
        report = co.check_eta_equivariance(params, args.degree, args.trials,
                                           args.seed)
    elif args.which == "delta":
        report = sg.check_delta_equivariance(params, args.i_max,
                                             trials=args.trials, seed=args.seed)
    else:
        report = co.check_inflation_equivariance(params, args.i, args.trials,
                                                 args.seed)
    _emit_json(report)
    return 0 if report["failures"] == 0 else 1


def _cmd_cache(args):
    if args.action == "list":
        _emit_json({"cacheDir": args.cache_dir,
                    "entries": res.list_cache(args.cache_dir)})
        return 0
    removed = res.clear_cache(args.cache_dir)
    _emit_json({"cacheDir": args.cache_dir, "removed": removed})
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_params(sp, i_flag=None, family=False):
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--x", type=int, default=None)
    if i_flag == "i":
        sp.add_argument("--i", type=int, default=None)
    elif i_flag == "i-max":
        sp.add_argument("--i-max", dest="i_max", type=int, default=None)
    if family:
        sp.add_argument("--family", choices=["b3r"], default=None)
        sp.add_argument("--r", type=int, default=None)


def _add_budgets(sp, matrix=True):
    def budget(text):  # argparse names it in "invalid budget value: ..."
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"budget must be >= 1, got {value}")
        return value

    sp.add_argument("--budget-order", dest="budget_order", type=budget, default=None)
    if matrix:
        sp.add_argument("--budget-matrix", dest="budget_matrix", type=budget,
                        default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coclass",
        description="Quotients of uniserial p-adic space groups and their "
                    "mod-p cohomology Betti numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="construct a group and report on it")
    g.add_argument("action", choices=["build", "census", "export"])
    _add_params(g, i_flag="i", family=True)
    _add_budgets(g, matrix=False)
    g.set_defaults(func=_cmd_group)

    f = sub.add_parser("filtration", help="verify the lattice-chain identities")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--x", type=int, required=True)
    f.add_argument("--i-max", dest="i_max", type=int, default=10)
    f.add_argument("--trials", type=int, default=200)
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(func=_cmd_filtration)

    b = sub.add_parser("betti", help="Betti numbers of one group")
    _add_params(b, i_flag="i", family=True)
    b.add_argument("--max-degree", dest="max_degree", type=int, required=True)
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--cache-dir", dest="cache_dir", default=_default_cache_dir())
    _add_budgets(b)
    b.set_defaults(func=_cmd_betti)

    t = sub.add_parser("theorem", help="compare Betti vectors across levels")
    _add_params(t, i_flag="i-max", family=False)
    t.add_argument("--family", choices=["b3r"], default=None)
    t.add_argument("--r-max", dest="r_max", type=int, default=None)
    t.add_argument("--max-degree", dest="max_degree", type=int, required=True)
    t.add_argument("--format", choices=["json", "csv"], default="json")
    t.add_argument("--cache-dir", dest="cache_dir", default=_default_cache_dir())
    _add_budgets(t)
    t.set_defaults(func=_cmd_theorem)

    e = sub.add_parser("equivariance", help="verify a cochain-level identity")
    e.add_argument("which", choices=["eta", "delta", "inflation"])
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--x", type=int, required=True)
    e.add_argument("--degree", type=int, default=1)
    e.add_argument("--i", type=int, default=1)
    e.add_argument("--i-max", dest="i_max", type=int, default=6)
    e.add_argument("--trials", type=int, default=500)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=_cmd_equivariance)

    c = sub.add_parser("cache", help="list or clear the resolution cache")
    c.add_argument("action", choices=["list", "clear"])
    c.add_argument("--cache-dir", dest="cache_dir", default=_default_cache_dir())
    c.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
