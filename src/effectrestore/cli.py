"""Command-line interface exposing every estimator over flat files.

    effectrestore <subcommand> --in <csv|json> [--error <json>] [--out <json|csv>] ...

Exit status: 0 on success, 2 when the model is incompatible with the
data (singular mechanism, negative restored mass, degenerate strata,
positivity), 1 on usage or IO errors.  Model-level failures also emit
a machine-readable ``{"error": <tag>, "message": ...}`` JSON document;
where ``restore-discrete`` restored the table but one requested estimate
failed, that object stands in the estimate's place in the full document.
All result documents carry a ``method`` field and echo the effective
configuration.  Warnings raised while a command runs are not printed:
their messages go into the document's ``warnings`` list, which is
present only when one was raised (after a usage error they go to
stderr, one ``warning:`` line each).

Run as a program (``python -m effectrestore.cli`` or the ``effectrestore``
script), the process defaults ``OPENBLAS_THREAD_TIMEOUT`` to 4 before
numpy loads, so idle BLAS threads sleep instead of spinning on a core
the bootstrap draws on; a value already in the environment is kept.
Importing this module sets nothing.
"""

from __future__ import annotations

import argparse
import sys
import warnings

if __name__ == "__main__":
    from . import _program_policy

    _program_policy()

import numpy as np  # noqa: E402  (after the policy, which OpenBLAS reads on load)

from . import binary, dsep, linear, restore, simulate
from .errors import (
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
from .mechanism import BinaryErrorParams, ErrorMatrix, component_mechanism
from .tables import TOL_SUM_INPUT, JointTable, empirical_joint, validate_joint

_ERROR_TAGS = (
    (SingularError, "singular"),
    (IncompatibleModelError, "incompatible"),
    (PositivityError, "positivity"),
    (DegenerateStratumError, "degenerate_stratum"),
    (UnidentifiableError, "unidentifiable"),
    (InvalidErrorVarianceError, "invalid_error_variance"),
)
_MODEL_ERRORS = tuple(cls for cls, _ in _ERROR_TAGS)


def _failure(exc: Exception) -> dict:
    """The ``{"error": tag, "message": ...}`` object of a model failure."""
    return {"error": next(t for cls, t in _ERROR_TAGS if isinstance(exc, cls)), "message": str(exc)}


def _estimate(fn, *args) -> object:
    """``fn(*args)``, or in its place the failure object of the model error it raised."""
    try:
        return fn(*args)
    except _MODEL_ERRORS as exc:
        return _failure(exc)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_error(path: str) -> tuple[ErrorMatrix, list[BinaryErrorParams]]:
    """``--error``: an error-matrix object, with no rates, or binary rates (an object
    or a nonempty list) read as their ``component_mechanism``."""
    data = load_json(path)
    if isinstance(data, dict) and not {"eps", "delta"} & data.keys():
        return ErrorMatrix.from_json_dict(data), []
    items = data if isinstance(data, list) else [data]
    rates = [BinaryErrorParams.from_json_dict(d) for d in items]
    return component_mechanism(rates), rates


def _one_pair(args: argparse.Namespace, rates: list[BinaryErrorParams]) -> BinaryErrorParams:
    """The rates of a binary command's ``--error``, which must hold one pair."""
    if len(rates) != 1:
        raise ValidationError(f"{args.error}: {args.command} takes 1 rate pair, got {len(rates)}")
    return rates[0]


#: most cells of a table whose x and y cards a CSV's values set: 8 MiB a float64
#: copy, 64 times the largest such table of the tests and benchmark (2 x 2 x 4096)
_TABLE_CAP = 1 << 20


def _read_table(path: str, mech: ErrorMatrix, smooth: float,
                xy_cards: tuple[int, int] | None = None) -> tuple[JointTable, int | None]:
    """``--in`` as the observed table and its row count (None for JSON).  A JSON table
    must be a distribution.  A CSV holds x, y and one w column of ``mech.n_w`` values
    or one per dense factor of ``mech`` (its ``n_w`` the radix).  x and y cards are
    ``xy_cards`` when given, else a CSV's max + 1."""
    if path.endswith(".json"):
        if smooth:
            raise ValidationError("--smooth smooths sample counts; a .json table input has none")
        table = JointTable.from_json_dict(load_json(path))
        check = validate_joint(table)
        if check.negative_cells:
            (cell, value), *_ = check.negative_cells
            raise ValidationError(f"{path}: cell (x, y, v) = {cell} is negative ({value!r})")
        if not check.valid:
            raise ValidationError(f"{path}: cells sum to {table.total()!r}, "
                                  f"{check.defect:.3e} from 1 (tolerance {TOL_SUM_INPUT:.0e})")
        if xy_cards not in (None, (table.card_x, table.card_y)):
            raise ValidationError(f"{path}: card_x={table.card_x} and card_y={table.card_y}, "
                                  f"expected {xy_cards[0]} and {xy_cards[1]}")
        return table, None
    header, samples = read_integer_samples(path)
    radices = [leaf.n_w for leaf in mech._leaves]
    w_cards = {3: [mech.n_w], 2 + len(radices): radices}.get(samples.shape[1])
    if w_cards is None:
        widths = " or ".join(map(str, sorted({3, 2 + len(radices)})))
        raise ValidationError(f"{path}: expected {widths} columns, got {len(header)} ({header})")
    if xy_cards is None:
        xy_cards = tuple(int(samples[:, i].max(initial=0)) + 1 for i in (0, 1))
        if xy_cards[0] * xy_cards[1] * mech.n_w > _TABLE_CAP:
            i = int(xy_cards[1] > xy_cards[0])
            raise ValidationError(
                f"{path}: column {header[i]!r} holds {xy_cards[i] - 1}, so the {xy_cards[0]} x "
                f"{xy_cards[1]} x {mech.n_w} table exceeds the cap of {_TABLE_CAP} cells")
    return empirical_joint(samples, (*xy_cards, *w_cards), "W", smooth=smooth), len(samples)


def _cmd_restore_discrete(args: argparse.Namespace) -> dict:
    """Also ``restore-binary``: binary x and y, one pair of rates, no --x or --strata."""
    x, strata = getattr(args, "x", None), getattr(args, "strata", None)
    if strata is not None and x is None:
        raise ValidationError("--strata needs --x: the stratified effect is of a treatment value")
    mech, rates = _read_error(args.error)
    xy_cards = (2, 2) if args.command == "restore-binary" else None
    if xy_cards:
        _one_pair(args, rates)
    observed, _ = _read_table(args.input, mech, args.smooth, xy_cards)
    result = restore.restore_joint(observed, mech, clip=args.clip)
    payload = result.to_json_dict()
    if x is not None:
        # each estimate stands alone: a model failure of one takes only its place
        restored = result.restored
        payload["effect"] = _estimate(restore.adjust_for_confounder, restored, x)
        if strata is not None:
            profile = restore.propensity_profile(restored, treated=x, n_bins=strata)
            payload["stratified_effect"] = _estimate(restore.stratified_effect, restored, profile, x)
    return payload


def _cmd_effect_binary(args: argparse.Namespace) -> dict:
    """``restore-discrete --x`` on the 2x2 mechanism, with a bootstrap of the
    same restoration and adjustment, run on each chunk of resampled tables
    at once."""
    mech, rates = _read_error(args.error)
    _one_pair(args, rates)
    observed, n = _read_table(args.input, mech, args.smooth, (2, 2))
    if n is None:
        raise ValidationError("effect-binary bootstraps sample rows; a .json table input has none")
    result = restore.restore_joint(observed, mech)
    effect = restore.adjust_for_confounder(result.restored, args.x)
    counts = observed.cells.ravel() * n
    boots = linear.bootstrap_table_values(
        (counts / counts.sum()).reshape(2, 2, 2), n,
        lambda chunk: restore._restored_effects(chunk, mech, args.x),
        n_boot=args.boot, seed=args.seed,
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
        "condition_estimate": result.condition_estimate,
        "negative_mass": result.negative_mass,
        "clipped": result.clipped,
    }


def _cmd_synthesize(args: argparse.Namespace) -> dict:
    _, errs = _read_error(args.error)
    _, samples = read_integer_samples(args.input)
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
    k = samples.shape[1] - 2
    header = ["x", "y", *(["w"] if k == 1 else [f"w{i + 1}" for i in range(k)])]
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
            p.add_argument("--error", required=True, help="error-mechanism or error-rates JSON")
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

    add("restore-binary", _cmd_restore_discrete,
        "restore-discrete for binary x and y with one pair of error rates",
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


def _warned(caught: list[warnings.WarningMessage]) -> dict:
    """The ``warnings`` entry of a result document: absent when none was raised."""
    return {"warnings": [str(w.message) for w in caught]} if caught else {}


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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = args.func(args)
    except _MODEL_ERRORS as exc:
        failure = _failure(exc)
        doc = {"method": args.command, **failure, **_warned(caught)}
        text = dump_json(doc, json_out)
        if json_out is None:
            sys.stdout.write(text)
        print(f"effectrestore {args.command}: {failure['error']}: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError, RecursionError) as exc:
        # RecursionError: a JSON input nested too deep to decode or to load
        for w in caught:
            print(f"effectrestore {args.command}: warning: {w.message}", file=sys.stderr)
        print(f"effectrestore {args.command}: error: {exc}", file=sys.stderr)
        return 1
    doc = {"method": args.command, "config": _config_echo(args), **payload, **_warned(caught)}
    text = dump_json(doc, json_out)
    if json_out is None:
        sys.stdout.write(text)
    failed = [v for v in payload.values() if isinstance(v, dict) and "error" in v]
    for failure in failed:
        print(f"effectrestore {args.command}: {failure['error']}: {failure['message']}",
              file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
