"""Command-line front end.

Exit codes: 0 = YES/ACCEPT, 1 = NO/REJECT, 2 = usage or input error,
3 = resource budget exceeded, 4 = internal error (any other exception,
reported with its traceback, so that no crash reads as a NO or a REJECT).
The machine-readable verdict (`yes` or `no`) goes to stdout; diagnostics
go to stderr. Budgets come from --budget-states/--budget-secs, falling
back to REKONFIG_BUDGET_STATES and REKONFIG_BUDGET_SECS, then to the
library defaults. Each command imports only the modules it runs: only
`solve` loads the exact solver, `xp-vcr` the XP solver, `oracle` the
oracles and `bound` the length bound, and `reduce` loads the one compiler it
names (with the oracles' data types), and the solver only when `planarize`
must check a crossed edge off the variable cycles against every feasible set.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io_formats
from .budget import Budget
from .errors import (
    FormatSemanticsError,
    FormatSyntaxError,
    PreconditionError,
    RekonfigError,
    ResourceBudgetError,
)
from .graph import FeasibilityKind, RuleKind, verify_sequence

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def __getattr__(name: str):
    # `cli.solve_exact` is the solver that `solve` runs, resolved on first
    # read (PEP 562) so that importing the front end does not load it. Not
    # cached here: the name always reads the current binding in `exact`.
    if name == "solve_exact":
        from .exact import solve_exact

        return solve_exact
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _budget(args) -> Budget:
    states = args.budget_states
    secs = args.budget_secs
    try:
        if states is None:
            states = int(os.environ.get("REKONFIG_BUDGET_STATES", Budget.max_states))
        if secs is None:
            secs = float(os.environ.get("REKONFIG_BUDGET_SECS", Budget.max_seconds))
    except ValueError as exc:
        raise PreconditionError(f"budget environment variable: {exc}") from None
    return Budget(max_states=states, max_seconds=secs)


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _verdict(yes: bool) -> int:
    print("yes" if yes else "no")
    return EXIT_YES if yes else EXIT_NO


def _cmd_solve(args) -> int:
    from .exact import solve_exact

    inst = io_formats.parse_instance(_read(args.instance))
    want_cert = args.certificate is not None
    result = solve_exact(inst, want_shortest=args.shortest or want_cert, budget=_budget(args))
    if result.reachable and want_cert:
        _emit(io_formats.serialize_certificate(result.shortest), args.certificate)
    if result.reachable and args.shortest:
        print(f"shortest {result.shortest.length}", file=sys.stderr)
    return _verdict(result.reachable)


def _cmd_xp_vcr(args) -> int:
    from .xp import xp_vcr_solve

    inst = io_formats.parse_instance(_read(args.instance))
    if inst.kind is not FeasibilityKind.VERTEX_COVER:
        raise PreconditionError("xp-vcr needs a vertex-cover instance")
    if inst.rule.kind is not RuleKind.KTJ:
        raise PreconditionError("xp-vcr needs the ktj rule")
    mu = len(inst.start) - inst.rule.k
    if args.mu is not None and args.mu != mu:
        raise PreconditionError(
            f"--mu {args.mu} contradicts the instance (|s| - k = {mu})"
        )
    yes = xp_vcr_solve(inst.graph, inst.start, inst.target, mu, budget=_budget(args))
    return _verdict(yes)


def _cmd_verify(args) -> int:
    inst = io_formats.parse_instance(_read(args.instance))
    seq = io_formats.parse_certificate(_read(args.certificate), inst.graph.vertex_count)
    verdict = verify_sequence(inst, seq)
    if not verdict.accepted:
        print(f"reject at step {verdict.index}: {verdict.reason}", file=sys.stderr)
    return _verdict(verdict.accepted)


def _cmd_reduce(args) -> int:
    from . import reductions

    if args.compiler == "sat2int":
        phi = io_formats.parse_cnf(_read(args.input))
        _emit(io_formats.serialize_cnf(reductions.e3sat_to_inte3sat(phi)), args.output)
    elif args.compiler == "int2isr":
        phi = io_formats.parse_cnf(_read(args.input))
        inst, _ = reductions.inte3sat_to_isr(phi, mu=args.mu)
        _emit(io_formats.serialize_instance(inst), args.output)
    elif args.compiler == "planarize":
        phi = io_formats.parse_cnf(_read(args.input))
        inst, ann = reductions.inte3sat_to_isr(phi, mu=1)
        drawing = reductions.grid_draw(inst, ann)
        planar, ann = reductions.planarize(inst, drawing, ann, budget=_budget(args))
        planar, ann = reductions.add_isolated_pads(planar, ann, args.mu - 1)
        _emit(io_formats.serialize_instance(planar), args.output)
    elif args.compiler == "ncl2isr":
        machine, cs, ct = io_formats.parse_ncl(_read(args.input))
        inst, _ = reductions.ncl_to_isr(machine, cs, ct, args.k, RuleKind(args.rule))
        _emit(io_formats.serialize_instance(inst), args.output)
    elif args.compiler == "pmr2isr":
        g, ms, mt = io_formats.parse_pmr(_read(args.input))
        inst = reductions.pmr_to_isr(g, ms, mt, RuleKind(args.rule))
        _emit(io_formats.serialize_instance(inst), args.output)
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown compiler {args.compiler}")
    return EXIT_YES


def _cmd_oracle(args) -> int:
    from .oracles import SatMode, ncl_reachable, pmr_reachable, sat_decide

    if args.problem == "sat":
        phi = io_formats.parse_cnf(_read(args.input))
        witness = sat_decide(phi, SatMode(args.mode), _budget(args))
        if witness is not None:
            model = " ".join(
                str(i + 1 if val else -(i + 1)) for i, val in enumerate(witness.values)
            )
            print(f"model {model}", file=sys.stderr)
        return _verdict(witness is not None)
    if args.problem == "ncl":
        machine, cs, ct = io_formats.parse_ncl(_read(args.input))
        return _verdict(ncl_reachable(machine, cs, ct, _budget(args)))
    if args.problem == "pmr":
        g, ms, mt = io_formats.parse_pmr(_read(args.input))
        return _verdict(pmr_reachable(g, ms, mt, _budget(args)))
    raise PreconditionError(f"unknown oracle {args.problem}")  # pragma: no cover


def _cmd_bound(args) -> int:
    from .bounds import shortest_length_bound

    b = shortest_length_bound(args.n, args.size, args.mu)
    print(f"max_length {b.max_length}")
    print(f"binomial_bound {b.binomial_bound}")
    print(f"loose_bound {b.loose_bound}")
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rekonfig",
        description="independent-set / vertex-cover reconfiguration toolkit",
    )
    parser.add_argument("--budget-states", type=int, default=None)
    parser.add_argument("--budget-secs", type=float, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact BFS decision")
    p.add_argument("instance")
    p.add_argument("--shortest", action="store_true")
    p.add_argument("--certificate", metavar="PATH")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("xp-vcr", help="XP algorithm for VCR under k-TJ")
    p.add_argument("instance")
    p.add_argument("--mu", type=int, default=None)
    p.set_defaults(func=_cmd_xp_vcr)

    p = sub.add_parser("verify", help="check a certificate")
    p.add_argument("instance")
    p.add_argument("--certificate", metavar="PATH", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="run an instance compiler")
    p.add_argument(
        "compiler", choices=["sat2int", "int2isr", "planarize", "ncl2isr", "pmr2isr"]
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--mu", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--rule", choices=["ktj", "kts"], default="ktj")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force source-problem decision")
    p.add_argument("problem", choices=["sat", "ncl", "pmr"])
    p.add_argument("input")
    p.add_argument("--mode", choices=["any", "mixed"], default="any")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bound", help="shortest-sequence length bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatSyntaxError, FormatSemanticsError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RekonfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
