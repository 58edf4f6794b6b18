"""Command-line surface: compute, verify, iterate, compare, export.

Flags mirror the conventional letters: ``--levels`` is N, ``--particles``
(or ``--length``) is K, ``--sum`` (or ``--total-energy``) is i / E.

Every distribution output carries the exact rationals; floats are a
convenience rendering and are flagged as approximate in JSON output.
Exit codes: 0 success, 1 failed verification or a stdout closed early
(with nothing on stderr), 2 usage or domain error.
The environment variable DBOLTZ_FORMAT picks the default output format.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .multisets import _decimal
from .nomials import DEFAULT_BUDGET

# Every `dboltz` call is its own process, so a module-level import here is
# paid by every command.  Only `argparse` and the counting layer (its default
# budget and `_decimal`, the one writer of integers) load with this module;
# each handler imports the modules it computes with, and the package resolves
# its names lazily, so `nomial value` loads no `fractions` and no distribution
# module, and `boltzmann` loads no chain, solver, urn or self-check code.
# `run` gives arguments only to the group argv names (see `_build_parser`).

__all__ = ["run", "main", "export_plot_data"]


def export_plot_data(omega: Dist, path: str) -> None:
    """Write ``index,probability,numerator,denominator`` rows for plotting.

    Probabilities are decimals at 12 significant digits; the exact
    rational columns are authoritative.
    """
    from .ketform import dist_to_csv_rows
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,probability,numerator,denominator\n")
        for row, (_, n, d) in zip(dist_to_csv_rows(omega), omega._reduced()):
            fh.write(f"{row},{_decimal(n)},{_decimal(d)}\n")


def _emit_dist(omega: Dist, args: argparse.Namespace) -> None:
    from .ketform import _json_text, dist_to_csv_rows, dist_to_json
    fmt = getattr(args, "format", None) or os.environ.get("DBOLTZ_FORMAT", "kets")
    if fmt == "kets":
        print(omega)
    elif fmt == "json":
        print(_json_text({"command": " ".join(args.command_echo), "format": "json",
                          "payload": dist_to_json(omega), "floats_are_approximate": True}))
    elif fmt == "csv":
        print("element,probability")
        for row in dist_to_csv_rows(omega):
            print(row)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    output = getattr(args, "output", None)
    if output:
        export_plot_data(omega, output)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_nomial_value(args) -> int:
    from .nomials import nomial, nomial_enum_sequences, nomial_recursive, nomial_via_multisets
    routes = {
        "auto": nomial,
        "multisets": nomial_via_multisets,
        "recursive": nomial_recursive,
        "sequences": lambda n, k, i: nomial_enum_sequences(n, k, i, args.budget),
    }
    print(_decimal(routes[args.route](args.levels, args.length, args.sum)))
    return 0


def _cmd_nomial_table(args) -> int:
    from .nomials import NomialTable
    for row in NomialTable(args.levels, args.max_length)._each_row():
        print(",".join(map(_decimal, row)))
    return 0


def _cmd_nomial_check(args) -> int:
    from .verify import _nomial_route_agreement
    name = f"nomial route agreement (N <= {args.max_levels}, K <= {args.max_length})"
    try:
        _nomial_route_agreement(args.max_levels, args.max_length, args.budget)
    except AssertionError as exc:
        print(f"FAIL {name}: {exc}")
        return 1
    print(f"PASS {name}")
    return 0


def _cmd_boltzmann(args) -> int:
    from .boltzmann import (
        boltzmann_on_energy,
        boltzmann_on_multisets,
        boltzmann_on_numbers,
        boltzmann_on_numbers_via_multisets,
        scaled_unnormalized,
    )
    kind = args.family
    if kind == "energy":
        e, k = args.total_energy, args.particles
        if args.scaled:
            print(",".join(f"{v:.12g}" for v in scaled_unnormalized(e, k)))
            return 0
        dist = boltzmann_on_energy(e, k)
    else:
        n, k = args.levels, args.particles
        i = args.sum if args.sum is not None else args.total_energy
        if i is None:
            raise ValueError("need --sum (or --total-energy) for this family")
        if kind == "multisets":
            dist = boltzmann_on_multisets(n, k, i)
        else:
            dist = (boltzmann_on_numbers_via_multisets(n, k, i)
                    if args.route == "flrn" else boltzmann_on_numbers(n, k, i))
    _emit_dist(dist, args)
    return 0


def _cmd_markov_stationarity(args) -> int:
    from .boltzmann import boltzmann_on_multisets
    from .markov import shift_channel, stationarity_residual
    n, k, i = args.levels, args.particles, args.sum
    residual = stationarity_residual(boltzmann_on_multisets(n, k, i), shift_channel(n, k, i))
    print(residual)
    return 0


def _cmd_markov_iterate(args) -> int:
    from .boltzmann import boltzmann_on_multisets
    from .distributions import point, uniform
    from .markov import iterate_chain, shift_channel
    n, k, i = args.levels, args.particles, args.sum
    reference = boltzmann_on_multisets(n, k, i)
    chain = shift_channel(n, k, i)
    states = chain.states  # the enumeration order
    omega0 = (uniform(states) if args.start == "uniform"
              else point(states[0] if args.start == "first" else states[-1]))
    trace = iterate_chain(omega0, chain, args.steps, reference)
    print("step,tv_distance")
    for step, residual in trace:
        print(f"{step},{float(residual):.12g}")
    return 0


def _cmd_markov_matrix(args) -> int:
    from .markov import transition_matrix
    states, rows = transition_matrix(args.levels, args.particles, args.sum)
    print("state," + ",".join(f'"{s}"' for s in states))
    for phi, row in zip(states, rows):
        print(f'"{phi}",' + ",".join(str(w) for w in row))
    return 0


def _cmd_approx_compare(args) -> int:
    from .approx import compare, continuous_exponential_pdf
    report = compare(args.total_energy, args.particles)
    if args.format == "json":
        from .ketform import _json_text, dist_to_json
        payload = {
            "command": " ".join(args.command_echo),
            "energy": report.energy,
            "particles": report.particles,
            "mu": {"numerator": report.mu.numerator, "denominator": report.mu.denominator},
            "reference_entropy": report.reference_entropy,
            "max_entropy_base": report.max_entropy_base,
            "continuous_rate": report.continuous_rate,
            "floats_are_approximate": True,
            "reference": dist_to_json(report.reference),
            "candidates": [
                {
                    "name": c.name,
                    "mean": float(c.mean),
                    "entropy": c.entropy,
                    "kl_from_reference": c.kl_from_reference,
                    "total_variation": float(c.total_variation),
                    "dist": dist_to_json(c.dist),
                }
                for c in report.candidates
            ],
        }
        print(_json_text(payload))
        return 0
    pdf = continuous_exponential_pdf(report.mu)
    names = [c.name for c in report.candidates]
    print("j,reference," + ",".join(names) + ",continuous_pdf")
    grid = max(1, args.grid)
    columns = [(dict(d.numerators()), d.denominator)
               for d in (report.reference, *(c.dist for c in report.candidates))]
    for step in range(args.total_energy * grid + 1):
        j, r = divmod(step, grid)
        x = step / grid  # int true division rounds correctly, as Fraction.__float__ does
        cells = [f"{x:.12g}"]
        if r == 0:
            cells.extend(f"{num.get(j, 0) / den:.12g}" for num, den in columns)
        else:
            cells.extend([""] * len(columns))
        cells.append(f"{pdf(x):.12g}")
        print(",".join(cells))
    return 0


def _cmd_multivariate(args) -> int:
    from .multisets import parse_multiset
    from .multivariate import (
        boltzmann_multi,
        boltzmann_multi_on_levels,
        hypergeometric,
        nomial_distribution,
        polya,
    )
    psi = parse_multiset(args.urn)
    kind = args.dist
    if kind == "hypergeometric":
        dist = hypergeometric(args.draw, psi)
    elif kind == "polya":
        dist = polya(args.draw, psi)
    elif kind == "nomial-dist":
        dist = nomial_distribution(args.draw, psi, args.levels)
    else:  # boltzmann-multi
        if args.on_levels:
            dist = boltzmann_multi_on_levels(args.levels, psi, args.sum)
        else:
            dist = boltzmann_multi(args.levels, psi, args.sum)
    _emit_dist(dist, args)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all
    results = run_all(max_levels=args.max_levels, max_size=args.max_size,
                      budget=args.budget, trials=args.trials)
    failures = 0
    for r in results:
        tag = "PASS" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{tag} {r.name}{detail}")
        print(f"{r.seconds:.3f} s {r.name}", file=sys.stderr)
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["kets", "json", "csv"], default=None,
                   help="output format (default from DBOLTZ_FORMAT, else kets)")
    p.add_argument("--output", metavar="FILE", default=None,
                   help="also write plot-data CSV (index, probability, exact columns)")


def _add_nomial(group: argparse.ArgumentParser) -> None:
    nom = group.add_subparsers(dest="action", required=True)
    value = nom.add_parser("value", help="one coefficient")
    value.add_argument("--levels", type=int, required=True)
    value.add_argument("--length", "--particles", dest="length", type=int, required=True)
    value.add_argument("--sum", type=int, required=True)
    value.add_argument("--route", choices=["auto", "multisets", "recursive", "sequences"],
                       default="auto")
    value.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    value.set_defaults(handler=_cmd_nomial_value)
    table = nom.add_parser("table", help="triangle rows as CSV")
    table.add_argument("--levels", type=int, required=True)
    table.add_argument("--max-length", type=int, required=True)
    table.set_defaults(handler=_cmd_nomial_table)
    check = nom.add_parser("check", help="cross-route agreement sweep")
    check.add_argument("--max-levels", type=int, default=5)
    check.add_argument("--max-length", type=int, default=6)
    check.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    check.set_defaults(handler=_cmd_nomial_check)


def _add_boltzmann(group: argparse.ArgumentParser) -> None:
    boltz = group.add_subparsers(dest="family", required=True)
    for family in ("multisets", "numbers", "energy"):
        p = boltz.add_parser(family)
        if family == "energy":
            p.add_argument("--total-energy", type=int, required=True)
            p.add_argument("--particles", type=int, required=True)
            p.add_argument("--scaled", action="store_true",
                           help="print K times the weights as decimals")
        else:
            p.add_argument("--levels", type=int, required=True)
            p.add_argument("--particles", "--length", dest="particles", type=int, required=True)
            p.add_argument("--sum", type=int, default=None)
            p.add_argument("--total-energy", type=int, default=None)
            if family == "numbers":
                p.add_argument("--route", choices=["nomial", "flrn"], default="nomial")
        _add_format_flags(p)
        p.set_defaults(handler=_cmd_boltzmann)


def _add_markov(group: argparse.ArgumentParser) -> None:
    markov = group.add_subparsers(dest="action", required=True)
    for action, handler, help_text in (
            ("stationarity", _cmd_markov_stationarity, "exact equilibrium residual"),
            ("iterate", _cmd_markov_iterate, "pushforward iteration trace"),
            ("matrix", _cmd_markov_matrix, "explicit transition matrix")):
        p = markov.add_parser(action, help=help_text)
        p.add_argument("--levels", type=int, required=True)
        p.add_argument("--particles", type=int, required=True)
        p.add_argument("--sum", "--total-energy", dest="sum", type=int, required=True)
        if action == "iterate":
            p.add_argument("--steps", type=int, default=10)
            p.add_argument("--start", choices=["uniform", "first", "last"], default="uniform")
        p.set_defaults(handler=handler)


def _add_approx(group: argparse.ArgumentParser) -> None:
    appx = group.add_subparsers(dest="action", required=True)
    cmp_p = appx.add_parser("compare")
    cmp_p.add_argument("--total-energy", type=int, required=True)
    cmp_p.add_argument("--particles", type=int, required=True)
    cmp_p.add_argument("--grid", type=int, default=1,
                       help="subdivisions per level for the continuous overlay")
    cmp_p.add_argument("--format", choices=["csv", "json"], default="csv")
    cmp_p.set_defaults(handler=_cmd_approx_compare)


def _add_multivariate(group: argparse.ArgumentParser) -> None:
    multi = group.add_subparsers(dest="dist", required=True)
    for kind in ("hypergeometric", "polya", "nomial-dist", "boltzmann-multi"):
        p = multi.add_parser(kind)
        p.add_argument("--urn", required=True, help='multiset text, e.g. "1|a> + 5|b> + 3|c>"')
        if kind == "boltzmann-multi":
            p.add_argument("--levels", type=int, required=True)
            p.add_argument("--sum", "--total-energy", dest="sum", type=int, required=True)
            p.add_argument("--on-levels", action="store_true",
                           help="push each component through frequentist learning")
        else:
            p.add_argument("--draw", "--sum", dest="draw", type=int, required=True)
            if kind == "nomial-dist":
                p.add_argument("--levels", type=int, default=None,
                               help="colour count N (default: size of the urn's ground set)")
        _add_format_flags(p)
        p.set_defaults(handler=_cmd_multivariate)


def _add_verify(group: argparse.ArgumentParser) -> None:
    ver = group.add_subparsers(dest="action", required=True)
    allp = ver.add_parser("all")
    allp.add_argument("--max-levels", type=int, default=4)
    allp.add_argument("--max-size", type=int, default=5)
    allp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    allp.add_argument("--trials", type=int, default=25)
    allp.set_defaults(handler=_cmd_verify)


# command group -> (its help line, the function that fills its subparser),
# in help order
_GROUPS = {
    "nomial": ("N-nomial coefficients", _add_nomial),
    "boltzmann": ("the three distribution families", _add_boltzmann),
    "markov": ("the sum-preserving shift chain", _add_markov),
    "approx": ("approximation comparison", _add_approx),
    "multivariate": ("urn distributions", _add_multivariate),
    "verify": ("invariant sweeps", _add_verify),
}


def _build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The `dboltz` parser; given a command group, only that group's
    subparser gets its arguments and the others keep just their name and
    help line.  argparse descends only into the group an argv names, so
    for an argv that names ``group`` first this parser prints the same
    help, usage and errors as the full one and reads the same namespace."""
    parser = argparse.ArgumentParser(
        prog="dboltz",
        description="Exact N-nomial coefficients and discrete Boltzmann distributions.")
    sub = parser.add_subparsers(dest="group", required=True)
    for name, (help_text, fill) in _GROUPS.items():
        p = sub.add_parser(name, help=help_text)
        if group in (None, name):
            fill(p)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    return _build_parser(argv[0] if argv and argv[0] in _GROUPS else None).parse_args(argv)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.command_echo = ["dboltz", *argv]
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: send what stdout still buffers to devnull, so the
        # interpreter's last flush cannot fail, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
