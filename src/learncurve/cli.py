"""Command-line interface.

Subcommands cover the full pipeline: ``synth`` emits measurement CSVs from
a known curve, ``fit`` / ``region`` produce JSON artifacts, ``extrapolate``
/ ``needed`` / ``intersect`` / ``noise-impact`` answer planning questions,
``manifest`` builds and manipulates nested-subset experiment manifests, and
``report`` renders the SVG plot.  Exit codes: 0 success, 2 usage error,
3 data-contract error, 4 numeric failure (non-convergence, no region,
a result outside the floating-point range).  Each command imports the
library modules it uses when it runs, so the planning commands start
without numpy.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .curves import LOGLOG, NONLINEAR
from .errors import DataError, NonConvergenceError, NoRegionError, NumericError, ToolkitError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _select_metric(ms, metric):
    sub = ms.only(metric)
    if len(sub) == 0:
        raise DataError(f"no measurements for metric {metric!r}; file holds {ms.metrics()}")
    return sub


def _say(text: str) -> None:
    """Print ``text`` with what stdout cannot encode backslash-escaped, as
    a path given as non-UTF-8 bytes (it arrives holding lone surrogates)."""
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def _emit(payload: dict, out: str | None, note: str = "") -> None:
    """Write a JSON payload to ``out``, or to standard output without one."""
    from .artifacts import dumps_canonical, write_json

    if out:
        write_json(payload, out)
        _say(f"wrote {out}{note}")
    else:
        _say(dumps_canonical(payload).rstrip("\n"))


def _cmd_synth(args) -> int:
    from .artifacts import write_measurements
    from .model import ThreePhaseModel, synth_curve

    model = ThreePhaseModel(alpha=args.alpha, c=args.c, plateau=args.plateau, floor=args.floor)
    ms = synth_curve(
        model, args.sizes, args.replicates, args.sigma, args.seed, metric=args.metric
    )
    write_measurements(ms, args.out)
    _say(f"wrote {args.out} ({len(ms)} points)")
    return EXIT_OK


def _cmd_fit(args) -> int:
    from .artifacts import FitArtifact, InputFile, envelope, read_measurements
    from .fitting import fit_discrepancy, fit_loglog, fit_nonlinear

    source = InputFile.read(args.input)
    sub = _select_metric(read_measurements(source), args.metric)
    params = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "method": args.method,
        "on_means": args.on_means,
        "seed": None,
    }

    def artifact(fit) -> FitArtifact:
        return FitArtifact.from_fit(fit, args.metric, source.digest, params)

    if args.method in (LOGLOG, NONLINEAR):
        fitter = fit_loglog if args.method == LOGLOG else fit_nonlinear
        fit = fitter(sub, args.n_min, args.n_max, on_means=args.on_means)
        payload = artifact(fit).to_dict()
    else:  # both
        fit_a = fit_loglog(sub, args.n_min, args.n_max, on_means=args.on_means)
        fit_b = fit_nonlinear(sub, args.n_min, args.n_max, on_means=args.on_means)
        disc = fit_discrepancy(fit_a, fit_b)
        body = {
            "loglog": artifact(fit_a).to_dict(),
            "nonlinear": artifact(fit_b).to_dict(),
            "discrepancy": {"alpha": disc.alpha, "c": disc.c},
        }
        payload = envelope("fit_pair", body, {"input_digest": source.digest}, params)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_region(args) -> int:
    from .artifacts import InputFile, read_measurements, region_to_dict
    from .fitting import detect_power_law_region
    from .model import random_guess_plateau

    source = InputFile.read(args.input)
    sub = _select_metric(read_measurements(source), args.metric)
    plateau = None
    if args.classes is not None:
        plateau = random_guess_plateau(args.metric, args.classes)
    region = detect_power_law_region(sub, plateau=plateau, r2_threshold=args.r2)
    params = {"classes": args.classes, "plateau": plateau, "r2_threshold": args.r2}
    _emit(region_to_dict(region, args.metric, source.digest, params), args.out)
    return EXIT_OK


def _cmd_extrapolate(args) -> int:
    from .artifacts import format_float, load_fit_artifact
    from .planning import extrapolate

    pred = extrapolate(load_fit_artifact(args.fit), args.n)
    _say(f"predicted loss at N={pred.n}: {format_float(pred.value)} ({pred.marker})")
    return EXIT_OK


def _cmd_needed(args) -> int:
    from .artifacts import format_float, load_fit_artifact
    from .planning import required_sample_size

    n = required_sample_size(load_fit_artifact(args.fit), args.target)
    _say(f"required sample size for target {format_float(args.target)}: {n}")
    return EXIT_OK


def _cmd_intersect(args) -> int:
    from .artifacts import format_float, load_fit_artifact
    from .planning import predict_intersection

    art_a = load_fit_artifact(args.fit_a)
    art_b = load_fit_artifact(args.fit_b)
    crossing = predict_intersection(art_a, art_b)
    winner = args.fit_a if crossing.superior == art_a else args.fit_b
    _say(f"curves intersect at N* = {format_float(crossing.n_star)}")
    _say(f"lower loss beyond N*: {winner}")
    return EXIT_OK


def _cmd_noise_impact(args) -> int:
    from .artifacts import InputFile, load_fit_artifact, noise_impact_to_dict
    from .planning import noise_impact

    clean = InputFile.read(args.clean)
    clean_fit = load_fit_artifact(clean)
    noisy = InputFile.read(args.noisy)
    report = noise_impact(clean_fit, load_fit_artifact(noisy), args.targets)
    payload = noise_impact_to_dict(
        report,
        clean_digest=clean.digest,
        noisy_digest=noisy.digest,
        params={"targets": args.targets},
    )
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_manifest_build(args) -> int:
    from .artifacts import InputFile, read_images, write_manifest
    from .manifest import build_nested_subsets

    source = InputFile.read(args.images)
    manifest = build_nested_subsets(read_images(source), args.sizes, args.seed)
    write_manifest(manifest, args.out, input_digest=source.digest)
    _say(f"wrote {args.out} ({len(manifest.records)} records, {len(manifest.classes)} classes)")
    return EXIT_OK


def _cmd_manifest_noise(args) -> int:
    from .artifacts import InputFile, read_manifest, write_manifest
    from .manifest import inject_label_noise

    source = InputFile.read(args.infile)
    noisy = inject_label_noise(read_manifest(source), args.p, args.seed)
    params = {"p": args.p, "seed": args.seed}
    write_manifest(noisy, args.out, input_digest=source.digest, params=params)
    flipped = len(noisy.flipped_ids())
    _say(f"wrote {args.out} ({flipped} of {len(noisy.records)} labels flipped)")
    return EXIT_OK


def _cmd_manifest_holdout(args) -> int:
    from .artifacts import InputFile, envelope, read_manifest
    from .manifest import holdout_split

    source = InputFile.read(args.infile)
    train, validation = holdout_split(read_manifest(source), args.size, args.fraction, args.seed)
    payload = envelope(
        "holdout",
        {"train": train, "validation": validation},
        {"input_digest": source.digest},
        {"size": args.size, "fraction": args.fraction, "seed": args.seed},
    )
    _emit(payload, args.out, f" ({len(train)} train, {len(validation)} validation)")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .artifacts import load_artifact, load_fit_artifact, read_measurements
    from .svgplot import write_report

    ms = read_measurements(args.input)
    fits = [load_fit_artifact(p) for p in args.fits] if args.fits else []
    region = load_artifact(args.region, "region") if args.region else None
    out, sidecar = write_report(ms, fits, region, args.out, (args.input, *args.fits, *filter(None, [args.region])))
    _say(f"wrote {out} and {sidecar}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="learncurve",
        description="Learning-curve analysis: power-law fits, extrapolation, "
        "crossover prediction, and reproducible experiment manifests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic measurement CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--plateau", type=float, required=True)
    p.add_argument("--floor", type=float, default=0.0)
    p.add_argument("--sizes", type=_int_list, required=True, help="comma-separated sample counts")
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--sigma", type=float, default=0.0, help="relative noise std")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--metric", default="synthetic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a power law to a measurement CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--method", choices=[LOGLOG, NONLINEAR, "both"], default="both")
    p.add_argument("--on-means", type=_bool, default=True, metavar="BOOL")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("region", help="detect the power-law region")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--classes", type=int, default=None, help="class count for the random-guess plateau")
    p.add_argument("--r2", type=float, default=0.98)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("extrapolate", help="predict the loss at a sample count")
    p.add_argument("--fit", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_extrapolate)

    p = sub.add_parser("needed", help="sample size required for a target loss")
    p.add_argument("--fit", required=True)
    p.add_argument("--target", type=float, required=True)
    p.set_defaults(func=_cmd_needed)

    p = sub.add_parser("intersect", help="crossing point of two fitted curves")
    p.add_argument("--fit-a", required=True)
    p.add_argument("--fit-b", required=True)
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("noise-impact", help="data cost of a degraded curve")
    p.add_argument("--clean", required=True)
    p.add_argument("--noisy", required=True)
    p.add_argument("--targets", type=_float_list, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_noise_impact)

    p = sub.add_parser("manifest", help="nested-subset experiment manifests")
    msub = p.add_subparsers(dest="manifest_command", required=True)

    q = msub.add_parser("build", help="build nested class-balanced subsets")
    q.add_argument("--images", required=True, help="CSV with header image_id,class,capture_group")
    q.add_argument("--sizes", type=_int_list, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_manifest_build)

    q = msub.add_parser("noise", help="inject consistent label noise")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_manifest_noise)

    q = msub.add_parser("holdout", help="deterministic validation split")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--fraction", type=float, default=0.20)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_manifest_holdout)

    p = sub.add_parser("report", help="render the SVG learning-curve report")
    p.add_argument("--input", required=True)
    p.add_argument("--fits", type=lambda s: [x for x in s.split(",") if x], default=[])
    p.add_argument("--region", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, (NonConvergenceError, NoRegionError, NumericError)) else EXIT_DATA
    except MemoryError as exc:  # an input too large for this machine, such as a huge --replicates
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
