"""Command-line front end: fit, simulate, bootstrap, and coverage studies.

Every subcommand writes exactly one output document (JSON by default, CSV
summary on request) that echoes every parsed argument but ``--threads``, and
exits with status 0 only when that document was completely written.  Bad
input, a failed read or write, running out of memory, a size past numpy's
integers and a worker process that dies each print one ``error:`` line and
exit with status 1.  A document, like each CSV file of ``simulate``, goes
to a temporary file beside its path and is renamed into place, so a failed
write leaves any earlier file at that path untouched.
``simulate`` writes both CSV files before renaming either; only a failure
between the two renames can leave the new ratings beside the earlier
rankings.  ``fit``, ``bootstrap`` and ``simulate`` read, sample and write
nothing when two of ``--ratings``, ``--rankings`` and ``--out`` name one
file.  Documents contain no timestamps or machine identifiers: the same
invocation always produces the same bytes, whatever ``--threads`` says.

Object labels are 1-based in everything the CLI reads or writes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import BrokenExecutor

import numpy as np

from .asymptotics import coverage_study, lan_check
from .bootstrap import BootstrapResult, bootstrap_fit
from .estimation import FitResult, fit
from .io import _replacing, read_dataset, write_ratings, write_rankings
from .model import DEFAULT_BOUNDS, ParamBounds, Params
from .sampling import sample_dataset

__all__ = ["build_parser", "run", "main"]

_THREADS_HELP = "processes to use, this one included"


def _pair(flag: str):
    def parse(text: str) -> tuple[float, float]:
        try:
            low, high = (float(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects two comma-separated numbers, got {text!r}"
            ) from None
        return low, high

    return parse


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, or - for stdout")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output document format"
    )


def _add_bounds_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--p-bounds",
        type=_pair("--p-bounds"),
        default=(DEFAULT_BOUNDS.p_min, DEFAULT_BOUNDS.p_max),
        metavar="A,B",
        help="box for the quality estimates",
    )
    parser.add_argument(
        "--theta-bounds",
        type=_pair("--theta-bounds"),
        default=(DEFAULT_BOUNDS.theta_min, DEFAULT_BOUNDS.theta_max),
        metavar="C,D",
        help="box for the concentration estimate",
    )


def _add_truth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--p", type=_float_list, required=True, metavar="P1,P2,...",
        help="true quality vector",
    )
    parser.add_argument("--theta", type=float, required=True, help="true concentration")
    parser.add_argument("--judges", type=int, required=True, help="number of judges")
    parser.add_argument("--M", type=int, required=True, help="rating scale maximum")
    parser.add_argument("--seed", type=int, default=0, help="root random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mallows-binomial",
        description="Joint consensus ranking and quality estimation "
        "from paired rankings and ratings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit of a data panel")
    p_fit.add_argument("--ratings", required=True, help="ratings CSV (obj_1..obj_J header)")
    p_fit.add_argument("--rankings", required=True, help="rankings CSV (no header)")
    p_fit.add_argument("--M", type=int, required=True, help="rating scale maximum")
    _add_bounds_flags(p_fit)
    _add_output_flags(p_fit)

    p_sim = sub.add_parser("simulate", help="draw a synthetic panel to CSV files")
    _add_truth_flags(p_sim)
    p_sim.add_argument("--ratings", required=True, help="path to write the ratings CSV")
    p_sim.add_argument("--rankings", required=True, help="path to write the rankings CSV")
    _add_output_flags(p_sim)

    p_boot = sub.add_parser("bootstrap", help="fit plus bootstrap percentile intervals")
    p_boot.add_argument("--ratings", required=True, help="ratings CSV (obj_1..obj_J header)")
    p_boot.add_argument("--rankings", required=True, help="rankings CSV (no header)")
    p_boot.add_argument("--M", type=int, required=True, help="rating scale maximum")
    p_boot.add_argument("--B", type=int, default=1000, help="bootstrap replicates")
    p_boot.add_argument("--alpha", type=float, default=0.10, help="interval miss rate")
    p_boot.add_argument("--seed", type=int, default=0, help="root random seed")
    p_boot.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    _add_bounds_flags(p_boot)
    _add_output_flags(p_boot)

    p_lan = sub.add_parser(
        "lan-check", help="standardized-error coverage of the estimator by simulation"
    )
    _add_truth_flags(p_lan)
    p_lan.add_argument("--R", type=int, default=500, help="simulation replications")
    p_lan.add_argument("--alpha", type=float, default=0.05, help="normal band miss rate")
    _add_bounds_flags(p_lan)
    _add_output_flags(p_lan)

    p_cov = sub.add_parser(
        "coverage", help="bootstrap interval coverage over simulated panels"
    )
    _add_truth_flags(p_cov)
    p_cov.add_argument("--R", type=int, default=300, help="simulation replications")
    p_cov.add_argument("--B", type=int, default=200, help="bootstrap replicates per panel")
    p_cov.add_argument("--alpha", type=float, default=0.10, help="interval miss rate")
    p_cov.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    _add_bounds_flags(p_cov)
    _add_output_flags(p_cov)

    return parser


# the parser run() uses, built once per process: parse_args leaves a parser
# as it found it, and every default above is immutable (a tuple of floats,
# str, int or float), so no namespace can change what a later run reads
_parser = functools.cache(build_parser)


def _bounds_of(args) -> ParamBounds:
    return ParamBounds(
        p_min=args.p_bounds[0],
        p_max=args.p_bounds[1],
        theta_min=args.theta_bounds[0],
        theta_max=args.theta_bounds[1],
    )


def _fit_document(result: FitResult) -> dict:
    # every field, in declaration order (the order of a fit's CSV rows)
    return dict(
        vars(result),
        consensus=[int(obj) + 1 for obj in result.consensus],
        p=[float(v) for v in result.p],
    )


def _bootstrap_document(boot: BootstrapResult) -> dict:
    return {
        "point": _fit_document(boot.point),
        "alpha": boot.alpha,
        "n_replicates": boot.n_replicates,
        "p_intervals": [[float(lo), float(hi)] for lo, hi in boot.p_intervals],
        "theta_interval": list(boot.theta_interval),
        "clamp_rate": boot.clamp_rate,
        "consensus_agreement": boot.consensus_agreement,
    }


def _common_config(args) -> dict:
    """Every parsed argument, keyed by its flag name, tuples as lists."""
    # --threads is deliberately absent from the echo: it cannot affect the
    # result, and documents must be byte-identical across worker counts
    return {
        key.replace("_", "-"): list(value) if isinstance(value, tuple) else value
        for key, value in vars(args).items()
        if key != "threads"
    }


def _cmd_fit(args) -> dict:
    data = read_dataset(args.ratings, args.rankings, args.M)
    result = fit(data, _bounds_of(args))
    document = _fit_document(result)
    document.update(
        n_judges=data.n_judges, n_objects=data.n_objects, max_rating=data.max_rating
    )
    return document


def _cmd_simulate(args) -> dict:
    params = Params(p=np.asarray(args.p), theta=args.theta)
    data = sample_dataset(params, args.judges, args.M, args.seed)
    # both files are complete before either is renamed into place
    with _replacing(args.ratings, args.rankings) as (ratings, rankings):
        write_ratings(ratings, data.ratings)
        write_rankings(rankings, data.rankings)
    return {
        "ratings_path": args.ratings,
        "rankings_path": args.rankings,
        "n_judges": data.n_judges,
        "n_objects": data.n_objects,
        "max_rating": data.max_rating,
        "consensus": [int(obj) + 1 for obj in params.consensus()],
    }


def _cmd_bootstrap(args) -> dict:
    data = read_dataset(args.ratings, args.rankings, args.M)
    boot = bootstrap_fit(
        data,
        n_replicates=args.B,
        alpha=args.alpha,
        seed=args.seed,
        bounds=_bounds_of(args),
        workers=args.threads,
    )
    return _bootstrap_document(boot)


def _cmd_study(study, args, **extra) -> dict:
    """Run a study on the truth flags, plus the ``extra`` arguments only it takes."""
    report = study(
        Params(p=np.asarray(args.p), theta=args.theta),
        n_judges=args.judges,
        max_rating=args.M,
        n_replications=args.R,
        alpha=args.alpha,
        seed=args.seed,
        bounds=_bounds_of(args),
        **extra,
    )
    return report.to_dict()


_HANDLERS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "bootstrap": _cmd_bootstrap,
    "lan-check": lambda args: _cmd_study(lan_check, args),
    "coverage": lambda args: _cmd_study(
        coverage_study, args, n_bootstrap=args.B, workers=args.threads
    ),
}


def _cell(value) -> str:
    """A CSV summary cell; a list is a consensus ranking, spelt best first as 3>1>2."""
    return ">".join(map(str, value)) if isinstance(value, list) else str(value)


def _csv_lines(payload: dict) -> list[str]:
    """Flat CSV summary of a result document, config echoed as comments: a
    header row, then value rows padded with empty cells to the header's width.
    """
    config, result = payload["config"], payload["result"]

    def p_rows(*columns) -> list[list]:
        return [[f"p_{j}", *cells] for j, cells in enumerate(zip(*columns), start=1)]

    if config["subcommand"] in ("fit", "simulate"):
        rows = [["parameter", "value"]]
        for key, value in result.items():
            rows += p_rows(value) if key == "p" else [[key, value]]
    elif config["subcommand"] == "bootstrap":
        point = result["point"]
        rows = [
            ["parameter", "point", "lower", "upper"],
            *p_rows(point["p"], *zip(*result["p_intervals"])),
            ["theta", point["theta"], *result["theta_interval"]],
            ["consensus", point["consensus"]],
            ["loglik", point["loglik"]],
            *([k, result[k]] for k in ("clamp_rate", "consensus_agreement", "n_replicates")),
        ]
    else:  # lan-check's details are z means and sds, coverage's interval widths
        details = ("z_mean", "z_sd") if result["p_z_mean"] is not None else ("interval_width",)
        rows = [
            ["parameter", "coverage", "detail_1", "detail_2"],
            *p_rows(result["p_coverage"], *(result[f"p_{name}"] for name in details)),
            ["theta", result["theta_coverage"], *(result[f"theta_{name}"] for name in details)],
            ["consensus_recovery_rate", result["consensus_recovery_rate"]],
        ]
        if result["theta_clamp_rate"] is not None:
            rows.append(["theta_clamp_rate", result["theta_clamp_rate"]])
    width = len(rows[0])
    cells = [",".join(map(_cell, row)) + "," * (width - len(row)) for row in rows]
    return [f"# {key}={config[key]}" for key in sorted(config)] + cells


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    return "\n".join(_csv_lines(payload)) + "\n"


def run(argv=None) -> int:
    """Parse arguments, run the subcommand, write its document; 0 on success."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_status:
        return int(exit_status.code or 0)
    try:
        # a subcommand that names panel files must not read, or write over,
        # one file under two of its flags
        if "ratings" in vars(args):
            paths = [args.ratings, args.rankings, *([] if args.out == "-" else [args.out])]
            if len({os.path.realpath(path) for path in paths}) < len(paths):
                raise ValueError("--ratings, --rankings and --out must name different files")
        payload = {"config": _common_config(args), "result": _HANDLERS[args.subcommand](args)}
        text = _render(payload, args.format)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with _replacing(args.out) as (temporary,), open(temporary, "xb") as handle:
                handle.write(text.encode())
    except (ValueError, OSError, MemoryError, OverflowError, BrokenExecutor) as error:
        print(f"error: {str(error) or type(error).__name__}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
