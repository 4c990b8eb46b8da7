"""Command line front end: apd, curves, reconstruct, generate, verify, stats."""

from __future__ import annotations

import argparse
import os
import sys

from .complexes import parse_complex, serialize_complex, validate_general_position
from .descriptors import betti_curve_from_apd, euler_curve_from_apd
from .edges import find_edges
from .errors import ApdrecError, InvalidInput, ParseError
from .geometry import format_rational, parse_rational
from .harness import GeneratorConfig, generate_complex, verify_roundtrip
from .higher import reconstruct
from .oracle import Oracle, compute_apd, format_diagram
from .vertices import vertex_stage


def _load_complex(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return parse_complex(text)


def _parse_direction(text: str):
    # argparse reads "--dir=--" as an empty list on some Python versions
    if not isinstance(text, str):
        raise ParseError(f"bad direction: {text!r}")
    try:
        return tuple(parse_rational(tok) for tok in text.replace(",", " ").split())
    except InvalidInput as exc:
        raise ParseError(f"bad direction: {exc}") from None


def _check_dim(args) -> None:
    if args.dim is not None and args.dim < 0:
        raise InvalidInput(f"--dim must be nonnegative, got {args.dim}")


def _cmd_apd(args) -> int:
    _check_dim(args)
    complex_ = _load_complex(args.complex)
    dgm = compute_apd(complex_, _parse_direction(args.dir))
    sys.stdout.write(format_diagram(dgm, args.dim))
    return 0


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(str(x) for x in value)
    return str(value)


def _cmd_curves(args) -> int:
    _check_dim(args)
    complex_ = _load_complex(args.complex)
    direction = _parse_direction(args.dir)
    dgm = compute_apd(complex_, direction)
    if args.kind == "betti":
        curve = betti_curve_from_apd(dgm, args.dim if args.dim is not None else 0)
    else:
        curve = euler_curve_from_apd(dgm)
    for height, value in curve.breakpoints:
        print(f"{format_rational(height)} {_format_value(value)}")
    for height, value in curve.decorations:
        print(f"# decoration {format_rational(height)} {_format_value(value)}")
    return 0


def _cmd_reconstruct(args) -> int:
    truth = _load_complex(args.complex)
    oracle = Oracle(truth)
    log = oracle.log
    if args.stage == "vertices":
        points, _, _ = vertex_stage(oracle)
        for p in points:
            print(" ".join(format_rational(x) for x in p))
        print(f"# vertex queries: {log.queries('vertices')}")
        return 0
    if args.stage == "edges":
        _, frame, ledger = vertex_stage(oracle)
        edges = find_edges(ledger, oracle, frame)
        for a, b in sorted(edges):
            print(f"{a} {b}")
        print(f"# vertex queries: {log.queries('vertices')}")
        print(f"# edge queries: {log.queries('edges')}")
        return 0
    recovered = reconstruct(oracle)
    sys.stdout.write(serialize_complex(recovered))
    # the lifted pass is the only one that calls the predicate with k == d
    d = truth.ambient_dim
    calls = [c for c in log.predicate_calls if c[0] < d]
    lifted_calls = [c for c in log.predicate_calls if c[0] == d]
    print(f"# vertex queries: {log.queries('vertices')}")
    print(f"# edge queries: {log.queries('edges')}")
    print(f"# higher-stage queries: {sum(q for _, q in calls)}")
    if lifted_calls:
        print(f"# lifted queries: {sum(q for _, q in lifted_calls)}")
    if args.stats:
        for k, q in calls:
            print(f"# predicate dim={k} queries={q}")
        for k, q in lifted_calls:
            print(f"# lifted predicate dim={k} queries={q}")
    return 0


def _cmd_generate(args) -> int:
    try:
        densities = [float(x) for x in (args.density or "0.5").split(",")]
    except ValueError:
        raise ParseError(f"bad density list {args.density!r}")
    config = GeneratorConfig(
        ambient_dim=args.dim,
        vertex_count=args.n0,
        max_dim=args.kappa,
        densities=densities,
        seed=args.seed,
        coordinate_denominator_bound=args.denominator_bound,
        lift_general_position=args.lift_general_position,
    )
    sys.stdout.write(serialize_complex(generate_complex(config)))
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 0:
        raise InvalidInput("--trials must be nonnegative")
    if args.kappa < 0:
        raise InvalidInput("--kappa must be nonnegative")
    failures = 0
    for trial in range(args.trials):
        seed = args.seed + trial
        d = 3 + (trial % 3)
        kappa = min(args.kappa, d - 1)
        config = GeneratorConfig(
            ambient_dim=d,
            vertex_count=4 + (trial % 5),
            max_dim=kappa,
            densities=[0.5, 0.6, 0.6],
            seed=seed,
        )
        report = verify_roundtrip(generate_complex(config))
        ok = report.exact_match and report.all_bounds_ok
        failures += 0 if ok else 1
        print(
            f"trial={trial} seed={seed} d={d} n0={config.vertex_count} "
            f"kappa={kappa} match={report.exact_match} "
            f"queries={report.total_queries} bounds_ok={report.all_bounds_ok}"
        )
    print(f"{args.trials - failures}/{args.trials} trials passed")
    return 0 if failures == 0 else 1


def _cmd_stats(args) -> int:
    complex_ = _load_complex(args.complex)
    print(f"ambient dimension: {complex_.ambient_dim}")
    print(f"vertices: {len(complex_.vertices)}")
    print(f"max simplex dimension: {complex_.kappa}")
    for k in range(complex_.kappa + 1):
        print(f"n_{k} = {complex_.n_k(k)}")
    print(f"total simplices: {complex_.n}")
    report = validate_general_position(complex_)
    print(f"unique e1 heights: {report.unique_e1_heights}")
    print(f"distinct (e1, e2) projections: {report.distinct_projections}")
    print(f"no projected collinear triple: {report.no_three_projected_collinear}")
    print(f"affinely independent: {report.affinely_independent}")
    for witness in report.violations:
        print(f"violation: {witness}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apdrec",
        description="Augmented persistence diagrams and complex reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apd", help="directional augmented persistence diagram")
    p.add_argument("--complex", required=True)
    p.add_argument("--dir", required=True, help="comma separated rationals")
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=_cmd_apd)

    p = sub.add_parser("curves", help="Betti or Euler characteristic curves")
    p.add_argument("--complex", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--kind", choices=["betti", "euler"], required=True)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("reconstruct", help="reconstruct a complex from its oracle")
    p.add_argument("--complex", required=True)
    p.add_argument("--stage", choices=["vertices", "edges", "full"], default="full")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("generate", help="random general-position complex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--density", default=None, help="comma separated per dimension")
    p.add_argument("--denominator-bound", type=int, default=64)
    p.add_argument(
        "--codim-zero",
        dest="lift_general_position",
        action="store_true",
        help="also keep the lifted points (x, x.x) in general position, which "
        "reconstructing d-simplices (kappa = d) through the lift needs",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="seeded round-trip verification")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="complex statistics and position report")
    p.add_argument("--complex", required=True)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    """Run one command.  Returns 0 on success, 2 for an ApdrecError, and 1
    when the reader of stdout has gone (``apdrec stats ... | head``): what is
    left to write goes to os.devnull, so the flush at exit raises no second
    BrokenPipeError, and no traceback is printed."""
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ApdrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
