#!/usr/bin/env python3
"""Reproduce the benchmark cutoff table, closed form next to Monte Carlo.

Benchmark family: Weibull(2, 1) fiscal-need types, quadratic rescue cost
0.2 x + 0.5 x^2, welfare weights (omega_T, omega_b, gamma) = (1, 0.8, 1),
statutory cap 0.8, discretionary signal slope m = 0.5.  The commitment row
solves the cap schedule at lambda_T = omega_T; the discretion row first
runs the credibility fixed point.  Both rows are then re-estimated from
sampled types so the table shows the estimator bias at the chosen n.
"""

import argparse
import json
import sys

from softbudget import (
    PolicyPrimitives,
    QuadraticCost,
    Weibull,
    fixed_point,
    interior_probability,
    leader_cost,
    mc_run,
    solve_cap,
    transfer_schedule,
    virtual_weight,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200_000, help="Monte Carlo sample size")
    parser.add_argument("--seed", type=int, default=20260814, help="sampling seed")
    parser.add_argument("--json", metavar="PATH", default=None, help="also dump the table as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    dist = Weibull(2.0, 1.0)
    cost = QuadraticCost(0.2, 1.0)
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.5, chi=1.0)

    commitment = virtual_weight(dist, prim, prim.omega_T)
    solution = fixed_point(commitment, cost)
    rows = []
    for label, curve, sched in (
        ("commitment", commitment, solve_cap(commitment, cost, prim.b_bar)),
        ("discretion", solution.curve, solution.schedule),
    ):
        mc = mc_run(curve, cost, n=args.n, seed=args.seed)
        cost_value = leader_cost(curve, sched, transfer_schedule(sched, prim), cost)
        rows.append(
            {
                "regime": label,
                "lambda_T": curve.lambda_T,
                "theta_min": sched.theta_min,
                "theta_dagger": sched.theta_dagger,
                "p_int": interior_probability(sched, dist),
                "theta_min_hat": mc.theta_min_hat,
                "theta_dagger_hat": mc.theta_dagger_hat,
                "p_int_hat": mc.p_int_hat,
                "leader_cost": cost_value,
            }
        )

    header = f"{'regime':<12}{'lambda_T':>10}{'theta_min':>12}{'theta_dag':>12}{'p_int':>9}"
    print(f"closed form vs sampled (n={args.n}, seed={args.seed})")
    print(header)
    for row in rows:
        print(
            f"{row['regime']:<12}{row['lambda_T']:>10.6f}{row['theta_min']:>12.6f}"
            f"{row['theta_dagger']:>12.6f}{row['p_int']:>9.4f}"
        )
        print(
            f"{'  sampled':<12}{'':>10}{row['theta_min_hat']:>12.6f}"
            f"{row['theta_dagger_hat']:>12.6f}{row['p_int_hat']:>9.4f}"
        )
    print(f"commitment leader cost: {rows[0]['leader_cost']:.10f}")

    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(rows, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
