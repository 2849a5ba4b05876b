"""Command-line front end.

Exit codes: 0 = YES/ACCEPT, 1 = NO/REJECT, 2 = usage or input error,
3 = resource budget exceeded, 4 = internal error (any other exception,
reported with its traceback, so that no crash reads as a NO or a REJECT).
The machine-readable verdict (`yes` or `no`) goes to stdout; diagnostics
go to stderr. Budgets come from --budget-states/--budget-secs, falling
back to REKONFIG_BUDGET_STATES and REKONFIG_BUDGET_SECS, then to the
library defaults.

Each process loads only what its command runs. The command line is read
against one table (`_TABLE`), not by argparse, which, with the gettext and
locale it loads, would cost every process milliseconds. Only `solve` loads the
exact solver, and the matching core only under k-TS; `xp-vcr` loads the XP
solver, `oracle` the oracles and `bound` the length bound. `reduce` loads
the one compiler it names with the source-problem records, but no oracle
and no matching core, and the solver only when `planarize` must check a
crossed edge off the variable cycles against every feasible set.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
        if args.mu < 1:  # int2isr's check, before the pads mu - 1 could go negative
            raise PreconditionError(f"mu must be >= 1, got {args.mu}")
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
    else:  # pragma: no cover - the command table restricts choices
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


_HELP = """\
usage: rekonfig [--budget-states N] [--budget-secs S] COMMAND ...
       rekonfig solve INSTANCE [--shortest] [--certificate PATH]
       rekonfig xp-vcr INSTANCE [--mu M]
       rekonfig verify INSTANCE --certificate PATH
       rekonfig reduce {sat2int|int2isr|planarize|ncl2isr|pmr2isr} INPUT
                       [-o OUT] [--mu M] [--k K] [--rule ktj|kts]
       rekonfig oracle {sat|ncl|pmr} INPUT [--mode any|mixed]
       rekonfig bound --n N --size S --mu MU
"""

# The command table that `_parse` reads a command line with, and that
# `_HELP` spells out. Each command maps to its handler, its positionals as
# (name, convert), and its options as spelling -> (name, convert, default,
# required). convert is int, float or str, a tuple of the strings accepted,
# or None for a flag, which is True when given. The global options come
# before the command.
_GLOBAL = {
    "--budget-states": ("budget_states", int, None, False),
    "--budget-secs": ("budget_secs", float, None, False),
}
_TABLE = {
    "solve": (_cmd_solve, (("instance", str),), {
        "--shortest": ("shortest", None, False, False),
        "--certificate": ("certificate", str, None, False),
    }),
    "xp-vcr": (_cmd_xp_vcr, (("instance", str),), {"--mu": ("mu", int, None, False)}),
    "verify": (_cmd_verify, (("instance", str),), {"--certificate": ("certificate", str, None, True)}),
    "reduce": (_cmd_reduce, (("compiler", ("sat2int", "int2isr", "planarize", "ncl2isr", "pmr2isr")),
                             ("input", str)), {
        "-o": ("output", str, None, False),
        "--mu": ("mu", int, 1, False),
        "--k": ("k", int, 2, False),
        "--rule": ("rule", ("ktj", "kts"), "ktj", False),
    }),
    "oracle": (_cmd_oracle, (("problem", ("sat", "ncl", "pmr")), ("input", str)), {
        "--mode": ("mode", ("any", "mixed"), "any", False),
    }),
    "bound": (_cmd_bound, (), {
        "--n": ("n", int, None, True),
        "--size": ("size", int, None, True),
        "--mu": ("mu", int, None, True),
    }),
}


class _UsageError(Exception):
    """A command line that the command table does not admit."""


def _convert(name: str, convert, word: str):
    if isinstance(convert, tuple):
        if word in convert:
            return word
        raise _UsageError(f"{name}: invalid choice {word!r} (choose from {', '.join(convert)})")
    try:
        return convert(word)
    except ValueError:
        raise _UsageError(f"{name}: invalid {convert.__name__} value {word!r}") from None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The command line as attributes named by the table, or None once -h or
    --help has printed the usage text. Options are spelled in full, and a
    value follows as the next word or after `=`. Raises _UsageError."""
    command = None
    options = _GLOBAL
    words: list[str] = []
    values: dict[str, object] = {}
    rest = iter(argv)
    for word in rest:
        if word in ("-h", "--help"):
            sys.stdout.write(_HELP)
            return None
        if not word.startswith("-"):
            if command is not None:
                words.append(word)
            elif word in _TABLE:
                command = word
                options = _TABLE[word][2]
            else:
                raise _UsageError(f"unknown command {word!r} (choose from {', '.join(_TABLE)})")
            continue
        spelling, eq, value = word.partition("=")
        if spelling not in options:
            raise _UsageError(f"unrecognized option {spelling}")
        name, convert = options[spelling][:2]
        if convert is None:
            if eq:
                raise _UsageError(f"{spelling} takes no value")
            values[name] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                raise _UsageError(f"{spelling} needs a value")
        values[name] = _convert(spelling, convert, value)
    if command is None:
        raise _UsageError("no command given")
    _, positionals, options = _TABLE[command]
    if len(words) < len(positionals):
        raise _UsageError(f"missing {positionals[len(words)][0].upper()}")
    if len(words) > len(positionals):
        raise _UsageError(f"unexpected argument {words[len(positionals)]!r}")
    for (name, convert), word in zip(positionals, words):
        values[name] = _convert(name, convert, word)
    for spelling, (name, _, default, required) in (_GLOBAL | options).items():
        if name not in values:
            if required:
                raise _UsageError(f"missing {spelling}")
            values[name] = default
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_HELP}rekonfig: error: {exc}\n")
        return EXIT_USAGE
    if args is None:
        return EXIT_YES
    try:
        return _TABLE[args.command][0](args)
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
