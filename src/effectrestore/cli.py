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
The program also runs its imports with the cyclic GC off and freezes
their objects before the command and again after it, so neither the
command's collections nor interpreter teardown sweep numpy's import-time
heap (see ``effectrestore._program_run``).  Importing this module sets
nothing.

At module level this imports only what parsing and error mapping need
(``errors``, and ``io`` with numpy); each command imports the modules it runs,
so a command loads, and on a checkout without bytecode compiles, only
its own code.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import TYPE_CHECKING

if __name__ == "__main__":
    from . import _program_start

    _program_start()

from .errors import (  # noqa: E402  (after the policy, which OpenBLAS reads on load)
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

if TYPE_CHECKING:
    from .mechanism import ErrorMatrix
    from .tables import JointTable

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


def _mechanism(args: argparse.Namespace, binary: bool = False) -> ErrorMatrix:
    """The ``--error`` document, which a ``binary`` command requires to be 2x2."""
    from .mechanism import ErrorMatrix

    mech = ErrorMatrix.from_json_dict(load_json(args.error))
    if binary and (mech.n_w, mech.n_z) != (2, 2):
        raise ValidationError(f"{args.error}: {args.command} takes a 2x2 mechanism (one rates "
                              f"pair or a 2x2 matrix), got {mech.n_w}x{mech.n_z}")
    return mech


#: most cells of a table whose x and y cards a CSV's values set: 8 MiB a float64
#: copy, 64 times the largest such table of the tests and benchmark (2 x 2 x 4096)
_TABLE_CAP = 1 << 20


def _read_table(args: argparse.Namespace, binary: bool = False
                ) -> tuple[ErrorMatrix, JointTable, int | None]:
    """The ``--error`` mechanism, and ``--in`` as the observed table and its row count
    (None for JSON).  A JSON table must be a distribution.  A CSV holds x, y and one w
    column of ``mech.n_w`` values or one per dense factor of ``mech`` (its ``n_w`` the
    radix).  x and y cards are 2 for a ``binary`` command, else a CSV's max + 1."""
    from .tables import TOL_SUM_INPUT, JointTable, _smooth, empirical_joint, validate_joint

    path, smooth = args.input, args.smooth
    _smooth("--smooth", smooth)
    if smooth and path.endswith(".json"):
        raise ValidationError("--smooth smooths sample counts; a .json table input has none")
    mech, xy_cards = _mechanism(args, binary), (2, 2) if binary else None
    if path.endswith(".json"):
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
        return mech, table, None
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
    return mech, empirical_joint(samples, (*xy_cards, *w_cards), "W", smooth=smooth), len(samples)


def _cmd_restore_discrete(args: argparse.Namespace) -> dict:
    """Also ``restore-binary``: binary x and y, a 2x2 mechanism, no --x or --strata."""
    from . import restore, tables

    x, strata = getattr(args, "x", None), getattr(args, "strata", None)
    if strata is not None and x is None:
        raise ValidationError("--strata needs --x: the stratified effect is of a treatment value")
    if strata is not None:
        restore._bin_count("--strata", strata)
    mech, observed, _ = _read_table(args, binary=args.command == "restore-binary")
    if x is not None:
        tables._index("--x", x, observed.card_x)
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
    from . import linear, restore, rng

    if args.input.endswith(".json"):
        raise ValidationError("effect-binary bootstraps sample rows; a .json table input has none")
    linear._resample_count("--boot", args.boot)
    rng._seed("--seed", args.seed)
    mech, observed, n = _read_table(args, binary=True)
    result = restore.restore_joint(observed, mech)
    effect = restore.adjust_for_confounder(result.restored, args.x)
    counts = observed.cells.ravel() * n
    boots = linear.bootstrap_table_values(
        (counts / counts.sum()).reshape(2, 2, 2), n,
        lambda chunk: restore._restored_effects(chunk, mech, args.x),
        n_boot=args.boot, seed=args.seed,
    )
    return {
        "x": args.x,
        "effect": effect,
        **linear._interval(effect, boots),
        "n": n,
        "boot_used": len(boots),
        "condition_estimate": result.condition_estimate,
        "negative_mass": result.negative_mass,
        "clipped": result.clipped,
    }


def _cmd_synthesize(args: argparse.Namespace) -> dict:
    from . import binary, rng

    rng._seed("--seed", args.seed)
    mech = _mechanism(args)
    _, samples = read_integer_samples(args.input)
    synth = binary.synthesize_samples(samples, mech, args.seed)
    k = synth.shape[1] - 2
    header = ["x", "y"] + [f"z{i + 1}" for i in range(k)]
    write_samples_csv(args.out, header, synth, integer=True)
    return {"n": int(synth.shape[0]), "components": k, "written": args.out}


def _cmd_effect_linear(args: argparse.Namespace) -> dict:
    from . import linear, rng

    # per source of lambda: its flag's value, its name, and lambda from moments
    sources = {
        "--lambda": (args.lam, "external", lambda s: args.lam),
        "--var-ew": (args.var_ew, "error_variance",
                     lambda s: linear.lambda_from_error_variance(s.var_w, args.var_ew)),
        "--two-indicator": (args.two_indicator or None, "two_indicator",
                            linear.lambda_from_two_indicators),
    }
    chosen = [flag for flag, (value, _, _) in sources.items() if value is not None]
    if len(chosen) != 1:
        raise ValidationError(f"exactly one of {', '.join(sources)} must be given")
    if args.lam is not None:
        linear._variance("--lambda", args.lam, positive=True)
    linear._resample_count("--boot", args.boot)
    rng._seed("--seed", args.seed)
    _, source, lam_of = sources[chosen[0]]
    _, rows = read_samples_csv(args.input)
    stats = linear.cov_from_samples(rows)
    lam = lam_of(stats)
    if args.two_indicator:
        statistic = linear.c0_two_indicator
    else:
        def statistic(s: linear.CovStats) -> float:
            return linear.c0_from_lambda(s, lam_of(s))
    c0 = statistic(stats)
    boots = linear.bootstrap_values(rows, statistic, n_boot=args.boot, seed=args.seed)
    return {
        "c0": c0,
        **linear._interval(c0, boots),
        "lambda": lam,
        "lambda_source": source,
        "n": stats.n,
        "boot_used": len(boots),
    }


def _cmd_test_dsep(args: argparse.Namespace) -> dict:
    from . import dsep, linear, rng

    # every flag given is judged, whether or not the method reads it
    dsep._check_level("--level", args.level)
    given = {"--lambda": args.lam, "--alpha-param": args.alpha_param}
    needed = {"theorem1": "--lambda", "two-stage": "--alpha-param"}.get(args.method)
    if needed and given[needed] is None:
        raise ValidationError(f"{needed} is required for the {args.method} test")
    for flag, value in given.items():
        if value is not None:
            linear._variance(flag, value, positive=True)
    linear._resample_count("--boot", args.boot)
    rng._seed("--seed", args.seed)
    _, rows = read_samples_csv(args.input)
    if args.method == "two-stage":
        result = dsep.two_stage_test(rows, args.alpha_param, level=args.level)
    elif args.method == "theorem1":
        result = dsep.theorem1_test(
            rows, args.lam, level=args.level, n_boot=args.boot, seed=args.seed
        )
    else:
        result = dsep.tetrad_test(rows, level=args.level, n_boot=args.boot, seed=args.seed)
    doc = result.to_json_dict()
    doc["test_method"] = doc.pop("method")  # 'method' is the subcommand in CLI output
    return doc


def _cmd_simulate(args: argparse.Namespace) -> dict:
    """``simulate-discrete`` and ``simulate-linear``: ``--n`` draws from the model at ``--in``."""
    from . import linear, rng, simulate

    linear._sample_count("--n", args.n)
    rng._seed("--seed", args.seed)
    if args.command == "simulate-discrete":
        spec = simulate.DiscreteModelSpec.from_json_dict(load_json(args.input))
        samples, effect = simulate.simulate_discrete(spec, args.n, args.seed)
        k = samples.shape[1] - 2
        header = ["x", "y", *(["w"] if k == 1 else [f"w{i + 1}" for i in range(k)])]
        truth = {"effect": effect}
    else:
        spec = linear.LinearSemSpec.from_json_dict(load_json(args.input))
        samples, pop = simulate.simulate_linear(spec, args.n, args.seed)
        header = ["x", "y", "w"] + (["v"] if spec.has_v else [])
        truth = {"population_cov": pop.to_json_dict()}
    write_samples_csv(args.out, header, samples, integer=samples.dtype.kind == "i")
    if args.truth:
        dump_json({"method": args.command, **truth}, args.truth)
    return {"n": args.n, "seed": args.seed, **truth, "written": args.out}


#: commands whose --out is the CSV they produce; their result JSON goes to stdout
_CSV_OUT = {"synthesize", "simulate-discrete", "simulate-linear"}


def build_parser() -> _Parser:
    parser = _Parser(prog="effectrestore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name: str, func, help_text: str, **flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--in", dest="input", required=True,
                       help="input CSV samples or JSON document")
        if flags.get("error"):
            p.add_argument("--error", required=True, help="error-mechanism or error-rates JSON")
        if name in _CSV_OUT:
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
        error=True, seed=True)

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

    for name, help_text in (
        ("simulate-discrete", "draw samples from a discrete ground-truth model"),
        ("simulate-linear", "draw samples from a linear ground-truth model"),
    ):
        p = add(name, _cmd_simulate, help_text, seed=True, n=True)
        p.add_argument("--truth", default=None, help="also write the ground truth JSON here")

    return parser


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
        config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
        doc = {"method": args.command, "config": config, **payload}
        failed = [v for v in payload.values() if isinstance(v, dict) and "error" in v]
    except _MODEL_ERRORS as exc:
        failed = [_failure(exc)]
        doc = {"method": args.command, **failed[0]}
    except (ValidationError, OSError, RecursionError) as exc:
        # RecursionError: a JSON input nested too deep to decode or to load
        for w in caught:
            print(f"effectrestore {args.command}: warning: {w.message}", file=sys.stderr)
        print(f"effectrestore {args.command}: error: {exc}", file=sys.stderr)
        return 1
    if caught:
        doc["warnings"] = [str(w.message) for w in caught]
    text = dump_json(doc, json_out)
    if json_out is None:
        sys.stdout.write(text)
    for failure in failed:
        print(f"effectrestore {args.command}: {failure['error']}: {failure['message']}",
              file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    from . import _program_run

    raise SystemExit(_program_run(main))
