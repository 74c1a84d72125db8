"""Command-line front end.

Every text output goes through `spectra.write_lines`, which states the file
contract.  The header lines of the ``verify`` CSVs name the criterion and
generator; all others echo the package version and the exact run
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .acceptance import DEFAULT_SEED, run_acceptance
from .curie_weiss import limiting_correlation, pair_correlation, spontaneous_magnetization
from .moments import EXACT_MAX_K, closed_form_moments, limiting_moment
from .oracle import census_report, check_cell_bound, walk_census
from .partitions import PairPartition, enumerate_pair_partitions, height, is_crossing
from .sampler import (CurieWeiss, Equicorrelated, GeneratorSpec, Independent, Toeplitz,
                      build_matrix, validate_conditions)
from .spectra import (moment_comparison_rows, render, run_ensemble, write_histogram_csv,
                      write_lines, write_moment_csv)
from .volumes import DEFAULT_SAMPLES, VolumeCache, toeplitz_volume


def _header(args: argparse.Namespace) -> list[str]:
    shown = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func", "out") and v is not None}
    config = " ".join(f"{k}={v}" for k, v in shown.items())
    return [f"corrdiag {__version__}", f"config: {config}"]


def _write_lines(path: Path | None, header: list[str], rows: list[str]) -> None:
    if path is None:
        sys.stdout.write(render(header, rows))
    else:
        print(f"wrote {write_lines(path, header, rows)}")


def _generator_from(args: argparse.Namespace) -> GeneratorSpec:
    name = args.generator
    if name == "independent":
        return Independent()
    if name == "equicorrelated":
        return Equicorrelated(args.c)
    if name == "curie-weiss":
        return CurieWeiss(args.beta)
    return Toeplitz()  # argparse choices admit no other name


def cmd_partitions(args: argparse.Namespace) -> int:
    rows = ["canonical,crossing,height"]
    parts = enumerate_pair_partitions(args.k)
    flags = [is_crossing(p) for p in parts]
    for p, crossing in zip(parts, flags):
        rows.append(f"{p.canonical()},{int(crossing)},{height(p)}")
    rows.append(f"# total={len(parts)} noncrossing={flags.count(False)}")
    _write_lines(args.out, _header(args), rows)
    return 0


def cmd_volume(args: argparse.Namespace) -> int:
    p = PairPartition.from_string(args.partition)
    rows = [
        "# columns: partition samples seed value std_error exact",
        VolumeCache.format_line(p.canonical(), toeplitz_volume(p, args.samples, args.seed)),
    ]
    _write_lines(args.out, _header(args), rows)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    if not 1 <= args.k <= EXACT_MAX_K:
        raise ValueError(f"--k must be in 1..{EXACT_MAX_K}, got {args.k}")
    rows = ["k,c,value,std_error,form"]
    for k in range(1, args.k + 1):
        for c in args.c_values:
            rows.append(f"{k},{c:g},{limiting_moment(k, c):.12g},0,all_partitions")
    _write_lines(args.out, _header(args), rows)
    return 0


def cmd_curie_weiss(args: argparse.Namespace) -> int:
    rows = ["beta,n,pair_correlation,limiting_correlation,spontaneous_magnetization"]
    for beta in args.beta_values:
        rows.append(
            f"{beta:g},{args.n},{pair_correlation(args.n, beta):.12g},"
            f"{limiting_correlation(beta):.12g},{spontaneous_magnetization(beta):.12g}"
        )
    _write_lines(args.out, _header(args), rows)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    gen = _generator_from(args)
    if args.check_conditions:
        report = validate_conditions(gen, args.n, draws=max(1000, 20 * args.n), seed=args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["all_ok"] else 1

    out_dir = args.out if args.out is not None else Path("corrdiag_out")
    header = _header(args)
    stats = run_ensemble(
        args.n, gen, args.realizations, kmax=args.k,
        bins=args.bins, hist_range=tuple(args.range), seed=args.seed,
    )
    hist_path = write_histogram_csv(stats, out_dir / "histogram.csv", header)
    rows = moment_comparison_rows(stats, closed_form_moments(gen))
    mom_path = write_moment_csv(rows, out_dir / "moments.csv", header)
    print(f"wrote {hist_path}")
    print(f"wrote {mom_path}")

    if args.dump_matrix:
        matrix = build_matrix(args.n, gen, realization=0, seed=args.seed)
        dump = out_dir / "matrix_upper.f64"
        with dump.open("wb") as fh:
            for i in range(args.n):
                matrix[i, i:].tofile(fh)
        print(f"wrote {dump} ({args.n}*({args.n}+1)/2 float64, row-major upper triangle)")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.check_heights:
        report = check_cell_bound(args.n, args.k)
    else:
        report = census_report(walk_census(args.n, args.k))
    header = _header(args) if args.out is not None else []  # stdout stays pure JSON
    _write_lines(args.out, header, [json.dumps(report, indent=2, sort_keys=True)])
    return 1 if args.check_heights and not report["ok"] else 0


def cmd_verify(args: argparse.Namespace) -> int:
    numbers = tuple(args.criteria) if args.criteria else None
    out_dir = args.out if args.out is not None else Path("corrdiag_out")
    results = run_acceptance(numbers, seed=args.seed, out_dir=out_dir)
    for result in results:
        print(result.headline())
        for line in result.details:
            print(f"    {line}")
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} criteria failed: {failed}")
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdiag",
        description="Spectral statistics of random matrices with correlated diagonals.",
    )
    parser.add_argument("--version", action="version", version=f"corrdiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate pair partitions with crossing flags and heights")
    p.add_argument("--k", type=int, default=6, help="ground-set size (even)")
    p.add_argument("--out", type=Path, default=None, help="CSV destination (default: stdout)")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("volume", help="Monte Carlo cube-section volume of one pair partition")
    p.add_argument("partition", help='canonical form, e.g. "1-3,2-4"')
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("moments", help="limiting moments on a grid of correlation values")
    p.add_argument("--k", type=int, default=8, help="largest moment order")
    p.add_argument("--c", dest="c_values", type=float, nargs="+", default=[0.0, 0.5, 1.0],
                   help="correlation values in [0, 1]")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="ignored; every order is exact (ROADMAP item 1 removes it)")
    p.add_argument("--seed", type=int, default=0,
                   help="ignored; every order is exact (ROADMAP item 1 removes it)")
    p.add_argument("--cache", type=Path, default=None,
                   help="ignored and not written (ROADMAP item 1 removes it)")
    p.add_argument("--out", type=Path, default=None, help="CSV destination (default: stdout)")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("curie-weiss", help="spin-pair correlations at finite n and in the limit")
    p.add_argument("--beta", dest="beta_values", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--n", type=int, default=500, help="number of spins")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_curie_weiss)

    p = sub.add_parser("simulate", help="sample an ensemble; write histogram and moment CSVs")
    p.add_argument("--generator", choices=("independent", "equicorrelated", "curie-weiss", "toeplitz"),
                   default="equicorrelated")
    p.add_argument("--c", type=float, default=0.5, help="equicorrelated correlation")
    p.add_argument("--beta", type=float, default=2.0, help="curie-weiss inverse temperature")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--realizations", type=int, default=20)
    p.add_argument("--k", type=int, default=6, help="largest empirical moment order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--range", type=float, nargs=2, default=(-5.0, 5.0))
    p.add_argument("--out", type=Path, default=None, help="output directory (default: corrdiag_out)")
    p.add_argument("--dump-matrix", action="store_true",
                   help="also dump realization 0 as row-major upper-triangle float64")
    p.add_argument("--check-conditions", action="store_true",
                   help="validate mean/variance/correlation of the diagonal generator and exit")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exhaustive walk counts over the cyclic path space")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--k", type=int, default=4, help="walk length (even)")
    p.add_argument("--check-heights", action="store_true",
                   help="verify the shared-cell lower bound instead of reporting counts")
    p.add_argument("--out", type=Path, default=None,
                   help="write header lines then the JSON report (default: stdout, no header)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run acceptance criteria; exit 0 only if all pass")
    p.add_argument("--criteria", type=int, nargs="+", default=None,
                   help="criterion numbers to run (default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=Path, default=None, help="directory for emitted CSVs")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
