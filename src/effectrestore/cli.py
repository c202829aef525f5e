"""Command-line interface exposing every estimator over flat files.

    effectrestore <subcommand> --in <csv|json> [--error <json>] [--out <json|csv>] ...

Exit status: 0 on success, 2 when the model is incompatible with the
data (singular mechanism, negative restored mass, degenerate strata or
denominators), 1 on usage or IO errors.  Model-level failures also emit
a machine-readable ``{"error": <tag>, "message": ...}`` JSON document.
All result documents carry a ``method`` field and echo the effective
configuration.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import binary, dsep, linear, restore, simulate
from .errors import (
    DegenerateDenominatorError,
    DegenerateStratumError,
    IncompatibleModelError,
    InvalidErrorVarianceError,
    PositivityError,
    SingularError,
    UnidentifiableError,
    ValidationError,
)
from .io import (
    dump_json,
    load_json,
    read_integer_samples,
    read_samples_csv,
    write_samples_csv,
)
from .mechanism import BinaryErrorParams, ErrorMatrix
from .tables import JointTable, empirical_joint

_ERROR_TAGS = (
    (SingularError, "singular"),
    (IncompatibleModelError, "incompatible"),
    (PositivityError, "positivity"),
    (DegenerateStratumError, "degenerate_stratum"),
    (DegenerateDenominatorError, "degenerate_denominator"),
    (UnidentifiableError, "unidentifiable"),
    (InvalidErrorVarianceError, "invalid_error_variance"),
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_binary_params(path: str) -> list[BinaryErrorParams]:
    data = load_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{path}: expected an error-params object or nonempty list")
    return [BinaryErrorParams.from_json_dict(d) for d in data]


def _read_discrete_samples(path: str, width: int | None = None) -> np.ndarray:
    header, samples = read_integer_samples(path)
    if width is not None and samples.shape[1] != width:
        raise ValidationError(
            f"{path}: expected {width} columns, got {samples.shape[1]} ({header})"
        )
    return samples


def _binary_table(path: str, smooth: float) -> JointTable:
    samples = _read_discrete_samples(path, 3)
    return empirical_joint(samples, (2, 2, 2), "W", smooth=smooth)


def _cmd_restore_discrete(args: argparse.Namespace) -> dict:
    mech = ErrorMatrix.from_json_dict(load_json(args.error))
    if args.input.endswith(".json"):
        observed = JointTable.from_json_dict(load_json(args.input))
    else:
        samples = _read_discrete_samples(args.input, 3)
        cards = (
            int(samples[:, 0].max(initial=0)) + 1,
            int(samples[:, 1].max(initial=0)) + 1,
            mech.n_w,
        )
        observed = empirical_joint(samples, cards, "W", smooth=args.smooth)
    result = restore.restore_joint(observed, mech, clip=args.clip)
    payload = result.to_json_dict()
    if args.x is not None:
        payload["effect"] = restore.adjust_for_confounder(result.restored, args.x)
        if args.strata is not None:
            profile = restore.propensity_profile(result.restored, n_bins=args.strata)
            payload["stratified_effect"] = restore.stratified_effect(
                result.restored, profile, args.x
            )
    return payload


def _cmd_restore_binary(args: argparse.Namespace) -> dict:
    err = _load_binary_params(args.error)[0]
    observed = _binary_table(args.input, args.smooth)
    restored = binary.restore_binary(observed, err, clip=args.clip)
    return {"restored": restored.to_json_dict()}


def _cmd_effect_binary(args: argparse.Namespace) -> dict:
    err = _load_binary_params(args.error)[0]
    samples = _read_discrete_samples(args.input, 3)
    observed = empirical_joint(samples, (2, 2, 2), "W", smooth=args.smooth)
    effect = [binary.causal_effect_binary(observed, err, args.x, y) for y in (0, 1)]
    n = samples.shape[0]
    counts = observed.cells.ravel() * n

    def statistic(cells: np.ndarray) -> list[float]:
        table = JointTable(cells, "W")
        return [binary.causal_effect_binary(table, err, args.x, y) for y in (0, 1)]

    boots = linear.bootstrap_table_values(
        (counts / counts.sum()).reshape(2, 2, 2), n, statistic, n_boot=args.boot, seed=args.seed
    )
    se = np.std(boots, axis=0, ddof=1)
    ci = [[e - 1.96 * s, e + 1.96 * s] for e, s in zip(effect, se)]
    return {
        "x": args.x,
        "effect": effect,
        "stderr": se,
        "ci95": ci,
        "n": n,
        "boot_used": len(boots),
    }


def _cmd_synthesize(args: argparse.Namespace) -> dict:
    errs = _load_binary_params(args.error)
    samples = _read_discrete_samples(args.input, 2 + len(errs))
    synth = binary.synthesize_samples(samples, errs, args.seed)
    header = ["x", "y"] + [f"z{i + 1}" for i in range(len(errs))]
    write_samples_csv(args.out, header, synth, integer=True)
    return {"n": int(synth.shape[0]), "components": len(errs), "written": args.out}


def _cmd_effect_linear(args: argparse.Namespace) -> dict:
    _, rows = read_samples_csv(args.input)
    chosen = [
        name
        for name, val in (
            ("--lambda", args.lam),
            ("--var-ew", args.var_ew),
            ("--two-indicator", args.two_indicator or None),
        )
        if val is not None
    ]
    if len(chosen) != 1:
        raise ValidationError(
            "exactly one of --lambda, --var-ew, --two-indicator must be given"
        )
    stats = linear.cov_from_samples(rows)
    if args.two_indicator:
        statistic = linear.c0_two_indicator
        lam = linear.lambda_from_two_indicators(stats)
        source = "two_indicator"
    elif args.var_ew is not None:
        def statistic(s: linear.CovStats) -> float:
            return linear.c0_from_lambda(s, linear.lambda_from_error_variance(s.var_w, args.var_ew))
        lam = linear.lambda_from_error_variance(stats.var_w, args.var_ew)
        source = "error_variance"
    else:
        def statistic(s: linear.CovStats) -> float:
            return linear.c0_from_lambda(s, args.lam)
        lam = args.lam
        source = "external"
    c0 = statistic(stats)
    boots = linear.bootstrap_values(rows, statistic, n_boot=args.boot, seed=args.seed)
    se = float(np.std(boots, ddof=1))
    return {
        "c0": c0,
        "stderr": se,
        "ci95": [c0 - 1.96 * se, c0 + 1.96 * se],
        "lambda": lam,
        "lambda_source": source,
        "n": stats.n,
        "boot_used": len(boots),
    }


def _cmd_test_dsep(args: argparse.Namespace) -> dict:
    _, rows = read_samples_csv(args.input)
    if args.method == "two-stage":
        if args.alpha_param is None:
            raise ValidationError("--alpha-param is required for the two-stage test")
        result = dsep.two_stage_test(rows, args.alpha_param, level=args.level)
    elif args.method == "theorem1":
        if args.lam is None:
            raise ValidationError("--lambda is required for the theorem1 test")
        result = dsep.theorem1_test(
            rows, args.lam, level=args.level, n_boot=args.boot, seed=args.seed
        )
    else:
        result = dsep.tetrad_test(rows, level=args.level, n_boot=args.boot, seed=args.seed)
    doc = result.to_json_dict()
    doc["test_method"] = doc.pop("method")  # 'method' is the subcommand in CLI output
    return doc


def _cmd_simulate_discrete(args: argparse.Namespace) -> dict:
    spec = simulate.DiscreteModelSpec.from_json_dict(load_json(args.input))
    samples, effect = simulate.simulate_discrete(spec, args.n, args.seed)
    if spec.k_components is None:
        header = ["x", "y", "w"]
    else:
        header = ["x", "y"] + [f"w{i + 1}" for i in range(spec.k_components)]
    write_samples_csv(args.out, header, samples, integer=True)
    payload = {"n": args.n, "seed": args.seed, "effect": effect, "written": args.out}
    if args.truth:
        dump_json({"method": "simulate-discrete", "effect": effect}, args.truth)
    return payload


def _cmd_simulate_linear(args: argparse.Namespace) -> dict:
    spec = linear.LinearSemSpec.from_json_dict(load_json(args.input))
    rows, pop = simulate.simulate_linear(spec, args.n, args.seed)
    header = ["x", "y", "w"] + (["v"] if spec.has_v else [])
    write_samples_csv(args.out, header, rows)
    payload = {
        "n": args.n,
        "seed": args.seed,
        "population_cov": pop.to_json_dict(),
        "written": args.out,
    }
    if args.truth:
        dump_json({"method": "simulate-linear", "population_cov": pop.to_json_dict()}, args.truth)
    return payload


def build_parser() -> _Parser:
    parser = _Parser(prog="effectrestore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name: str, func, help_text: str, **flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--in", dest="input", required=flags.get("needs_in", True),
                       help="input CSV samples or JSON document")
        if flags.get("error"):
            p.add_argument("--error", required=True, help="error-mechanism JSON")
        if flags.get("out_csv"):
            p.add_argument("--out", required=True, help="output CSV path")
        else:
            p.add_argument("--out", default=None, help="result JSON path (default: stdout)")
        if flags.get("seed"):
            p.add_argument("--seed", type=int, default=0, help="random seed")
        if flags.get("n"):
            p.add_argument("--n", type=int, default=10000, help="sample count")
        if flags.get("boot"):
            p.add_argument("--boot", type=int, default=flags["boot"],
                           help="bootstrap resamples")
        if flags.get("smooth"):
            p.add_argument("--smooth", type=float, nargs="?", const=0.5, default=0.0,
                           help="additive smoothing pseudo-count for empty cells "
                                "(default off; 0.5 when given without a value)")
        if flags.get("clip"):
            p.add_argument("--clip", action="store_true",
                           help="clip negative restored mass beyond tolerance "
                                "instead of failing")
        return p

    p = add("restore-discrete", _cmd_restore_discrete,
            "invert a categorical error mechanism on a joint table",
            error=True, smooth=True, clip=True)
    p.add_argument("--x", type=int, default=None,
                   help="also report the adjusted effect for this treatment value")
    p.add_argument("--strata", type=int, default=None,
                   help="with --x, also report the propensity-stratified effect "
                        "using this many score bins")

    add("restore-binary", _cmd_restore_binary,
        "closed-form restoration for a binary proxy",
        error=True, smooth=True, clip=True)

    p = add("effect-binary", _cmd_effect_binary,
            "corrected P(y|do(x)) for binary data, with bootstrap CI",
            error=True, smooth=True, seed=True, boot=200)
    p.add_argument("--x", type=int, default=1, choices=(0, 1), help="treatment value")

    add("synthesize", _cmd_synthesize,
        "draw latent (x, y, z) records mirroring observed (x, y, w) ones",
        error=True, out_csv=True, seed=True)

    p = add("effect-linear", _cmd_effect_linear,
            "proxy-corrected treatment coefficient from linear samples",
            seed=True, boot=1000)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="externally assessed c3^2 var(Z)")
    p.add_argument("--var-ew", dest="var_ew", type=float, default=None,
                   help="externally assessed proxy error variance")
    p.add_argument("--two-indicator", action="store_true",
                   help="estimate the pivotal product from a v column")

    p = add("test-dsep", _cmd_test_dsep,
            "test a latent-separation constraint through the proxy",
            seed=True, boot=1000)
    p.add_argument("--method", required=True, choices=("theorem1", "tetrad", "two-stage"))
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="c^2 var(Z) for the theorem1 method")
    p.add_argument("--alpha-param", dest="alpha_param", type=float, default=None,
                   help="var(W) - var(e_W) for the two-stage method")
    p.add_argument("--level", type=float, default=0.05, help="significance level")

    for name, func, help_text in (
        ("simulate-discrete", _cmd_simulate_discrete,
         "draw samples from a discrete ground-truth model"),
        ("simulate-linear", _cmd_simulate_linear,
         "draw samples from a linear ground-truth model"),
    ):
        p = add(name, func, help_text, out_csv=True, seed=True, n=True)
        p.add_argument("--truth", default=None, help="also write the ground truth JSON here")

    return parser


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


#: commands whose --out is the CSV they produce; their result JSON goes to stdout
_CSV_OUT = {"synthesize", "simulate-discrete", "simulate-linear"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    json_out = None if args.command in _CSV_OUT else getattr(args, "out", None)
    try:
        payload = args.func(args)
    except tuple(cls for cls, _ in _ERROR_TAGS) as exc:
        tag = next(t for cls, t in _ERROR_TAGS if isinstance(exc, cls))
        text = dump_json({"method": args.command, "error": tag, "message": str(exc)}, json_out)
        if json_out is None:
            sys.stdout.write(text)
        print(f"effectrestore {args.command}: {tag}: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"effectrestore {args.command}: error: {exc}", file=sys.stderr)
        return 1
    text = dump_json({"method": args.command, "config": _config_echo(args), **payload}, json_out)
    if json_out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
