"""Command-line front door: bratteli | seminormal | oracle | dims.

Exit codes: 0 success, 1 internal failure, 2 argument validation,
3 requested shape not in P_k, 4 oracle cap violation.  Rationals print as
"p/q"; every printed and dumped number is exact.  TBH_LOG=debug logs one
line per verified module and one per oracle stage to stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import bratteli, seminormal
from .errors import CapExceeded, NotInPk, TbhError
from .params import HeckeParams
from .partitions import as_partition, enum_Pk, weyl_dim
from .scalars import rational_to_str

log = logging.getLogger("tbh")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_NOT_IN_PK = 3
EXIT_CAP = 4


def _fmt(value):
    if isinstance(value, Fraction):
        return rational_to_str(value)
    return str(value)


def _parse_partition(text):
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}; expected like '3,1'")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise argparse.ArgumentTypeError(f"partition parts must be descending: {text!r}")
    if any(x < 0 for x in parts):
        raise argparse.ArgumentTypeError("partition parts must be nonnegative")
    return as_partition(parts)


def _add_rect_args(sub):
    sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--b", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)


def _make_params(args):
    params = HeckeParams(args.a, args.b, args.p, args.q, args.k)
    if params.normalized:
        print(
            f"note: parameters normalized to p >= q: using (a,b,p,q) = "
            f"({params.a},{params.b},{params.p},{params.q})",
            file=sys.stderr,
        )
    return params


def cmd_bratteli(args) -> int:
    params = _make_params(args)
    diagram = bratteli.build_diagram(params, max_height=args.max_height)
    for rank, level in enumerate(diagram.levels):
        print(f"rank {rank}: {len(level)} vertices")
    dims = bratteli.dimension_vector(diagram, diagram.num_ranks - 1)
    for lam in diagram.levels[-1]:
        print(f"  dim({','.join(map(str, lam))}) = {dims[lam]}")
    payload = bratteli.export(diagram, args.format)
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(payload.decode())
    return EXIT_OK


def _verify_one(job):
    params, lam, k, dump_dir = job
    module = seminormal.build_module(lam, params, k)
    seminormal.check_criteria(lam, params, k)
    relations = seminormal.check_full_relations(module) if k >= 1 else []
    cert = seminormal.check_simplicity(module)
    log.debug(
        "verified lambda=(%s) dim=%d relations=%d witnesses=%d",
        ",".join(map(str, lam)), module.dim, len(relations), len(cert.witnesses),
    )
    dev_x, dev_y = seminormal.quadratic_deviation(module) if k >= 1 else (0, 0)
    if dump_dir:
        import json
        from pathlib import Path

        doc = seminormal.module_to_json(module)
        doc["certificate"] = cert.to_dict()
        name = "lambda_" + "_".join(map(str, lam)) + ".json"
        Path(dump_dir, name).write_text(json.dumps(doc, indent=2) + "\n")
    return lam, module.dim, len(cert.witnesses), max(dev_x, dev_y)


def cmd_seminormal(args) -> int:
    params = _make_params(args)
    k = args.k
    shapes = sorted(enum_Pk(params, k), reverse=True)
    if args.all_lambda:
        targets = shapes
    else:
        if args.lam is None:
            print("error: provide --lambda or --all-lambda", file=sys.stderr)
            return EXIT_VALIDATION
        if args.lam not in shapes:
            print(f"error: {args.lam} is not in P_{k}", file=sys.stderr)
            return EXIT_NOT_IN_PK
        targets = [args.lam]
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    jobs = [(params, lam, k, args.dump) for lam in targets]
    # The pool forks every worker up front; never ask for more than can work.
    workers = min(args.jobs, len(targets), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_verify_one, jobs))
    else:
        outcomes = [_verify_one(job) for job in jobs]
    for lam, dim, witnesses, dev in outcomes:
        name = ",".join(map(str, lam))
        print(
            f"lambda=({name}) dim={dim} criteria=pass relations=pass "
            f"simple=pass witnesses={witnesses} quad_dev={_fmt(dev)}"
        )
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import TensorOracle  # deferred: heavier module

    params = _make_params(args)
    try:
        oracle = TensorOracle(params, args.n)
    except CapExceeded as exc:
        print(f"error: cap violated: {exc}", file=sys.stderr)
        return EXIT_CAP
    rows = []
    clock = time.perf_counter()

    def passed(stage, message):
        nonlocal clock
        now = time.perf_counter()
        log.debug("oracle stage %s: %s (%.3f s)", stage, message, now - clock)
        clock = now
        rows.append((stage, message))

    total = oracle.check_dimension_bookkeeping()
    passed(
        "dimension bookkeeping",
        f"dim U {total} (ambient {oracle.carrier.dim}), "
        f"largest weight space {oracle.carrier.largest_weight_space}",
    )
    oracle.check_commutant()
    passed("commutant", "all generator images commute with gl_n")
    oracle.check_transport()
    passed("relation transport", "full catalog exact")
    if params.k >= 1:
        oracle.check_factor_difference()
        passed("factor difference", "gamma identity exact")
    oracle.check_twist_shifts()
    passed("twist shifts", "twisted vs untwisted exact")
    spectra = oracle.check_spectra()
    passed("spectra", f"{len(spectra)} eigenvalue multiplicities verified")
    width = max(len(r[0]) for r in rows)
    for name, message in rows:
        print(f"{name:<{width}}  pass  {message}")
    return EXIT_OK


def cmd_dims(args) -> int:
    params = _make_params(args)
    diagram = bratteli.build_diagram(params, max_height=args.max_height)
    for rank in range(diagram.num_ranks):
        dims = bratteli.dimension_vector(diagram, rank)
        parts = [
            f"({','.join(map(str, lam))}):{dims[lam]}" for lam in diagram.levels[rank]
        ]
        line = f"rank {rank}: " + " ".join(parts)
        if args.n:
            total = sum(cnt * weyl_dim(lam, args.n) for lam, cnt in dims.items())
            line += f"  [sum dim x weyl_dim_{args.n} = {total}]"
        print(line)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tbh",
        description="Two-boundary Hecke algebra diagrams, seminormal modules, and oracle checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bratteli", help="build and export the Bratteli diagram")
    _add_rect_args(b)
    b.add_argument("--max-height", type=int, default=None)
    b.add_argument("--format", choices=("json", "dot"), default="json")
    b.add_argument("--output", default=None)
    b.set_defaults(func=cmd_bratteli)

    s = subs.add_parser("seminormal", help="build and verify seminormal modules")
    _add_rect_args(s)
    s.add_argument("--lambda", dest="lam", type=_parse_partition, default=None)
    s.add_argument("--all-lambda", action="store_true")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--dump", default=None, help="directory for matrix/certificate JSON dumps")
    s.set_defaults(func=cmd_seminormal)

    o = subs.add_parser("oracle", help="run the gl_n tensor-space oracle suites")
    _add_rect_args(o)
    o.add_argument("--n", type=int, required=True)
    o.set_defaults(func=cmd_oracle)

    d = subs.add_parser("dims", help="print dimension vectors per rank")
    _add_rect_args(d)
    d.add_argument("--max-height", type=int, default=None)
    d.add_argument("--n", type=int, default=None)
    d.set_defaults(func=cmd_dims)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("TBH_LOG", "").lower()
    logging.basicConfig(level=logging.DEBUG if level in ("1", "debug") else logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        _validate_positive(args)
        return args.func(args)
    except NotInPk as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_PK
    except CapExceeded as exc:
        print(f"error: cap violated: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TbhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _validate_positive(args):
    for name in ("a", "b", "p", "q"):
        if getattr(args, name, 1) <= 0:
            raise ValueError(f"--{name} must be positive")
    if getattr(args, "k", 0) < 0:
        raise ValueError("--k must be nonnegative")
    if getattr(args, "n", None) is not None and args.n is not None and args.n <= 0:
        raise ValueError("--n must be positive")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
