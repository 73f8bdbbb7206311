#!/usr/bin/env python3
"""Certify the closed-form comparative statics against the full solver.

Prints the seven analytic partial derivatives of the benchmark solution
(four for the lower cutoff, three for the interior cap level) with their
central-difference counterparts and relative errors, then differentiates
the discretionary fixed point in the signal slope m.  Clean rows certify
the implicit-function formulas; flagged rows mark parameter points where
a partial is not identified (regime boundary, no interior cutoff); with no
interior cutoff the fixed point is not differentiated, as in ``statics``.
The m rows follow the same flag rules, and the chain-rule gap is "none"
when one of its two rows is flagged.
The last line, ``passed=``, is the verdict of the ``statics`` command; the
``signs_ok=`` lines cover the sign checks alone.  Exits 2, naming each
failed check on stderr, when that verdict fails: no certified row, the
worst unflagged relative error above STATICS_REL_TOL, a wrong sign, or a
chain-rule gap above CHAIN_GAP_TOL.
"""

import argparse
import math
import sys

from softbudget import (
    PolicyPrimitives,
    QuadraticCost,
    Weibull,
    fd_certify,
    m_sensitivity,
    virtual_weight,
)
from softbudget.statics import statics_failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", type=float, default=0.2, help="marginal rescue cost at zero")
    parser.add_argument("--kappa", type=float, default=1.0, help="rescue cost curvature")
    parser.add_argument("--omega-b", type=float, default=0.8, help="bailout welfare weight")
    parser.add_argument("--gamma", type=float, default=1.0, help="screening-benefit weight")
    parser.add_argument("--m", type=float, default=0.5, help="discretionary signal slope")
    parser.add_argument("--skip-discretion", action="store_true", help="omit the fixed-point sensitivity")
    return parser


def print_rows(report, title):
    print(title)
    print(f"{'partial':<22}{'analytic':>14}{'fin-diff':>14}{'rel-err':>10}  sign")
    for row in report.rows:
        flag = f"  [{row.flag}]" if row.flag else ""
        sign = "ok" if row.sign_ok else "WRONG"
        print(
            f"{row.partial:<22}{row.analytic:>14.8f}{row.finite_difference:>14.8f}"
            f"{row.rel_error:>10.2e}  {sign}{flag}"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    dist = Weibull(2.0, 1.0)
    cost = QuadraticCost(args.alpha, args.kappa)
    prim = PolicyPrimitives(
        omega_T=1.0, omega_b=args.omega_b, gamma=args.gamma, b_bar=0.8, m=args.m, chi=1.0
    )

    commitment = virtual_weight(dist, prim, prim.omega_T)
    report = fd_certify(commitment, cost)
    print_rows(report, "commitment partials at the solved benchmark point")
    print(
        f"theta_min={report.theta_min:.6f}  b_max={report.b_max:.6f}  "
        f"max rel error={report.max_rel_error:.2e}  signs_ok={report.all_ok}"
    )

    sens = None
    if not (args.skip_discretion or math.isnan(report.theta_min)):
        sens = m_sensitivity(commitment, cost)
        print()
        print_rows(sens, "sensitivity to the signal slope m through the fixed point")
        gap = "none" if sens.chain_gap is None else f"{sens.chain_gap:.2e}"
        print(f"chain-rule gap={gap}  signs_ok={sens.all_ok}")
    failures = statics_failures(report, sens)
    print()
    print(f"passed={not failures}")
    if failures:
        print("certification failed: " + "; ".join(failures), file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
