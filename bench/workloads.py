"""The benchmark's three workloads: seeded inputs, pipeline passes, reference checks.

Inputs come from numpy generators seeded by ``(seed, workload tag)`` in
this file; ``binary-ingest`` and ``latent-restore`` never call
``effectrestore.simulate``, so a change to the package's samplers cannot
move their inputs or their reference values.  Every reference value is
computed here with its own formula, not by the package.

Why these three:

* ``binary-ingest`` is the headline CLI case: one ``effect-binary`` call on
  a large binary CSV.  CSV parsing dominates, so it shows ingest gains and
  is the no-change side for restore or resampling work.
* ``latent-restore`` is an in-process library pipeline over large latent
  spaces (a dense mechanism and a factored one): dense linear algebra and
  per-z Python loops, with no file I/O at all.
* ``simulate-resample`` is a five-command CLI chain that writes large CSVs,
  runs the simulators and the row-resampling bootstrap; it shows write and
  resampling costs that ``binary-ingest`` does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: input sizes; "tiny" exists for the smoke test only
SIZES = {
    "full": {
        "binary_rows": 1_000_000, "binary_boot": None,
        "dense_n": 2048, "factored_k": 18,
        "disc_k": 12, "disc_rows": 100_000, "lin_rows": 50_000, "lin_boot": None,
    },
    "tiny": {
        "binary_rows": 5_000, "binary_boot": 20,
        "dense_n": 16, "factored_k": 4,
        "disc_k": 3, "disc_rows": 4_000, "lin_rows": 4_000, "lin_boot": 50,
    },
}

#: the latent-restore child process
WORKER = Path(__file__).resolve().parent / "latent_worker.py"

#: an effect may sit this many bootstrap standard errors from the truth
SE_TOLERANCE = 5.0


def _fits(started: float, seconds: float, rounds: list[float]) -> bool:
    """Whether one more round, as long as the median one so far, ends within ``seconds``."""
    if not rounds:
        return True
    return time.perf_counter() - started + float(np.median(rounds)) <= seconds


def timed_passes(one_pass, seconds: float) -> tuple[dict, list[dict]]:
    """An untimed warm-up pass, then passes while the next one fits in ``seconds``."""
    warm = one_pass()
    passes: list[dict] = []
    t0 = time.perf_counter()
    while _fits(t0, seconds, [p["wall_s"] for p in passes]):
        passes.append(one_pass())
    return warm, passes


def traced_passes(plain_pass, traced_pass, seconds: float) -> tuple[list[dict], list[dict]]:
    """A warm-up, then alternating untraced and traced passes within ``seconds``."""
    plain_pass()
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.perf_counter()
    while _fits(t0, seconds, [a["wall_s"] + b["wall_s"] for a, b in zip(plain, traced)]):
        plain.append(plain_pass())
        traced.append(traced_pass())
    return plain, traced


def outcome(checks: dict[str, str | None]) -> dict:
    """Pass fields for named reference checks (name -> failure message or None)."""
    return {"checks": sorted(checks),
            "failures": [f"{name}: {msg}" for name, msg in checks.items() if msg]}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _binary_csv(path: Path, header: list[str], cols: list[np.ndarray]) -> None:
    """CSV of 0/1 columns, built as one byte block (digit, comma, ..., newline)."""
    n, k = len(cols[0]), len(cols)
    block = np.empty((n, 2 * k), dtype=np.uint8)
    block[:, 1::2] = ord(",")
    block[:, -1] = ord("\n")
    for i, col in enumerate(cols):
        block[:, 2 * i] = ord("0") + col.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(block.tobytes())


def _check_binary_csv(path: Path, n: int, k: int) -> str | None:
    """A failure message unless ``path`` holds a header and exactly n rows of k 0/1 values."""
    raw = path.read_bytes().replace(b"\r\n", b"\n")  # csv.writer ends rows with CRLF
    body = raw[raw.index(b"\n") + 1:]
    width = 2 * k
    if len(body) != n * width:
        return f"{path.name}: {len(body)} bytes of rows, expected {n} rows of {k} 0/1 values"
    block = np.frombuffer(body, dtype=np.uint8).reshape(n, width)
    digits = block[:, 0::2]
    seps = block[:, 1::2]
    if not np.isin(digits, (ord("0"), ord("1"))).all():
        return f"{path.name}: values other than 0/1"
    if not ((seps[:, :-1] == ord(",")).all() and (seps[:, -1] == ord("\n")).all()):
        return f"{path.name}: malformed separators"
    return None


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


class Spawner:
    """Runs CLI commands as child processes and measures each one alone.

    Peak RSS comes from ``os.wait4`` on that very child, so one command's
    memory is never reported against another (as a running maximum over
    all children would).
    """

    def __init__(self, src: Path, env: dict[str, str], deadline: float) -> None:
        self.env = dict(env)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.deadline = deadline

    def run(self, argv: list[str], log: Path) -> tuple[int, float]:
        """Exit code and peak RSS in MB of one child; killed at the deadline."""
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0


class CliWorkload:
    """A workload whose pass is a chain of ``effectrestore`` CLI commands."""

    name = ""

    def __init__(self, work: Path, seed: int, sizes: dict) -> None:
        self.work = work
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self) -> dict[str, str | None]:
        """Reference checks of the pass's outputs: name -> failure message or None."""
        raise NotImplementedError

    def layer_counts(self) -> dict[str, float]:
        """Per-layer values read from the pass's outputs (not from spans)."""
        return {}

    def clear_outputs(self) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def spawn_pass(self, spawner: Spawner) -> dict:
        """One untraced pass: every command as its own process, then the check."""
        self.clear_outputs()
        peak = 0.0
        failures: list[str] = []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.commands()):
            log = self.work / f"cmd{i}.log"
            code, rss = spawner.run([sys.executable, "-m", "effectrestore.cli", *argv], log)
            peak = max(peak, rss)
            if code != 0:
                tail = log.read_text(errors="replace")[-300:]
                failures.append(f"{argv[0]} exited {code}: {tail}")
                break
        wall = time.perf_counter() - t0
        checked = outcome(self.check()) if not failures else {"checks": [], "failures": failures}
        return {"wall_s": wall, "peak_rss_mb": peak, **checked}

    def inprocess_pass(self, main, tracer) -> dict:
        """One pass calling ``cli.main`` in this process, with its output silenced."""
        self.clear_outputs()
        failures: list[str] = []
        t0 = time.perf_counter()
        for argv in self.commands():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span("cli.main"):
                    code = main(argv)
            if code != 0:
                failures.append(f"{argv[0]} returned {code}: {sink.getvalue()[-300:]}")
                break
        wall = time.perf_counter() - t0
        checked = outcome(self.check()) if not failures else {"checks": [], "failures": failures}
        return {"wall_s": wall, **checked}


class BinaryIngest(CliWorkload):
    name = "binary-ingest"

    def setup(self) -> None:
        n = self.sizes["binary_rows"]
        rng = _rng(self.seed, 1)
        p_z1 = rng.uniform(0.3, 0.7)
        p_x1 = rng.uniform(0.25, 0.75, 2)            # P(x=1 | z)
        p_y1 = rng.uniform(0.15, 0.85, (2, 2))       # P(y=1 | x, z)
        eps, delta = rng.uniform(0.05, 0.2, 2)       # P(w=0 | z=1), P(w=1 | z=0)
        z = (rng.random(n) < p_z1).astype(np.intp)
        x = (rng.random(n) < p_x1[z]).astype(np.intp)
        y = rng.random(n) < p_y1[x, z]
        u = rng.random(n)
        w = np.where(z == 1, u >= eps, u < delta)
        self.data = self.work / "binary.csv"
        self.error = self.work / "binary_error.json"
        self.estimate = self.work / "binary_estimate.json"
        _binary_csv(self.data, ["x", "y", "w"], [x, y, w])
        _write_json(self.error, {"eps": float(eps), "delta": float(delta)})
        do1 = float(p_y1[1, 0] * (1.0 - p_z1) + p_y1[1, 1] * p_z1)
        self.truth = [1.0 - do1, do1]  # P(y | do(x=1)) for y = 0, 1
        self.boot = self.sizes["binary_boot"] or 200  # the CLI default

    def commands(self) -> list[list[str]]:
        argv = ["effect-binary", "--in", str(self.data), "--error", str(self.error),
                "--x", "1", "--seed", str(self.seed), "--out", str(self.estimate)]
        if self.sizes["binary_boot"]:
            argv += ["--boot", str(self.sizes["binary_boot"])]
        return [argv]

    def outputs(self) -> list[Path]:
        return [self.estimate]

    def check(self) -> dict[str, str | None]:
        doc = _load(self.estimate)
        off = [f"effect[y={y}] = {eff!r} vs analytic {truth!r} (stderr {se!r})"
               for y, (eff, se, truth) in enumerate(zip(doc["effect"], doc["stderr"], self.truth))
               if not (se > 0.0 and abs(eff - truth) <= SE_TOLERANCE * se)]
        return {
            "effect_vs_analytic": "; ".join(off) or None,
            "boot_used": None if doc["boot_used"] == self.boot
            else f"boot_used {doc['boot_used']} != boot {self.boot}",
        }

    def layer_counts(self) -> dict[str, float]:
        doc = _load(self.estimate)
        return {"cli.effect_binary.boot_used_share": doc["boot_used"] / self.boot}


class SimulateResample(CliWorkload):
    name = "simulate-resample"

    def setup(self) -> None:
        s = self.sizes
        rng = _rng(self.seed, 3)
        k = s["disc_k"]
        n_z = 2**k
        p_z = rng.uniform(0.5, 1.5, n_z)
        p_z /= p_z.sum()
        p_x1 = rng.uniform(0.2, 0.8, n_z)
        p_x = np.stack([1.0 - p_x1, p_x1])           # [x, z]
        p_y1 = rng.uniform(0.2, 0.8, (2, n_z))
        p_y = np.stack([1.0 - p_y1, p_y1])           # [y, x, z]
        rates = rng.uniform(0.05, 0.15, (k, 2))
        components = [{"eps": float(e), "delta": float(d)} for e, d in rates]
        self.disc_model = self.work / "disc_model.json"
        self.errors = self.work / "disc_errors.json"
        _write_json(self.disc_model, {
            "p_z": p_z.tolist(),
            "p_x_given_z": p_x.T.tolist(),
            "p_y_given_xz": np.moveaxis(p_y, 0, -1).tolist(),
            "error": {"components": components},
        })
        _write_json(self.errors, components)
        # P(y | do(x)) = sum_z P(y | x, z) P(z), indexed [x][y]
        self.effect = np.einsum("yxz,z->xy", p_y, p_z)

        spec = {
            "c0": rng.uniform(0.3, 0.7), "c1": rng.uniform(0.5, 1.0),
            "c2": rng.uniform(0.5, 1.0), "c3": rng.uniform(0.7, 1.2),
            "var_z": 1.0, "var_ex": 1.0, "var_ey": 1.0, "var_ew": rng.uniform(0.2, 0.5),
            "c_v": rng.uniform(0.7, 1.2), "var_ev": rng.uniform(0.2, 0.5),
        }
        self.lin_spec = {key: float(val) for key, val in spec.items()}
        self.lin_model = self.work / "lin_model.json"
        _write_json(self.lin_model, self.lin_spec)

        self.disc_csv = self.work / "disc.csv"
        self.truth = self.work / "truth.json"
        self.synth_csv = self.work / "synth.csv"
        self.lin_csv = self.work / "lin.csv"
        self.effect_lin = self.work / "effect_linear.json"
        self.dsep = self.work / "dsep.json"

    def commands(self) -> list[list[str]]:
        s, seed = self.sizes, str(self.seed)
        lin_boot = ["--boot", str(s["lin_boot"])] if s["lin_boot"] else []
        return [
            ["simulate-discrete", "--in", str(self.disc_model), "--out", str(self.disc_csv),
             "--truth", str(self.truth), "--n", str(s["disc_rows"]), "--seed", seed],
            ["synthesize", "--in", str(self.disc_csv), "--error", str(self.errors),
             "--out", str(self.synth_csv), "--seed", seed],
            ["simulate-linear", "--in", str(self.lin_model), "--out", str(self.lin_csv),
             "--n", str(s["lin_rows"]), "--seed", seed],
            ["effect-linear", "--in", str(self.lin_csv), "--var-ew", repr(self.lin_spec["var_ew"]),
             "--seed", seed, "--out", str(self.effect_lin), *lin_boot],
            ["test-dsep", "--in", str(self.lin_csv), "--method", "tetrad",
             "--seed", seed, "--out", str(self.dsep), *lin_boot],
        ]

    def outputs(self) -> list[Path]:
        return [self.disc_csv, self.truth, self.synth_csv, self.lin_csv, self.effect_lin, self.dsep]

    def check(self) -> dict[str, str | None]:
        effect = np.asarray(_load(self.truth)["effect"])
        doc = _load(self.effect_lin)
        c0, se = doc["c0"], doc["stderr"]
        decision = _load(self.dsep)["decision"]
        return {
            "truth_effect": None
            if effect.shape == self.effect.shape and np.abs(effect - self.effect).max() <= 1e-12
            else "truth JSON effect differs from the analytic effect by more than 1e-12",
            "synth_rows": _check_binary_csv(
                self.synth_csv, self.sizes["disc_rows"], 2 + self.sizes["disc_k"]),
            "c0_within_5se": None if se > 0.0 and abs(c0 - self.lin_spec["c0"]) <= SE_TOLERANCE * se
            else f"c0 = {c0!r} vs model {self.lin_spec['c0']!r} (stderr {se!r})",
            "tetrad_rejects": None if decision == "reject"
            else f"tetrad test decided {decision!r}; the model violates the constraint",
        }


def latent_inputs(work: Path, seed: int, sizes: dict) -> Path:
    """Write the latent-restore inputs and their reference values to one .npz."""
    rng = _rng(seed, 2)
    n = sizes["dense_n"]
    latent_dense = rng.uniform(0.5, 1.5, (2, 2, n))
    latent_dense /= latent_dense.sum()
    mix = rng.random((n, n))
    mix /= mix.sum(axis=0)
    # diagonally dominant and column-stochastic: 1-norm condition below 2.5
    mech = 0.7 * np.eye(n) + 0.3 * mix
    observed_dense = np.einsum("wz,xyz->xyw", mech, latent_dense)

    k = sizes["factored_k"]
    rates = rng.uniform(0.02, 0.15, (k, 2))
    latent_fact = rng.uniform(0.5, 1.5, (2, 2, 2**k))
    latent_fact /= latent_fact.sum()
    cells = latent_fact.reshape(2, 2, *([2] * k))
    for i, (eps, delta) in enumerate(rates):
        factor = np.array([[1.0 - delta, eps], [delta, 1.0 - eps]])
        cells = np.moveaxis(np.tensordot(factor, cells, axes=([1], [2 + i])), 0, 2 + i)
    observed_fact = cells.reshape(2, 2, 2**k)

    p_z = latent_fact.sum(axis=(0, 1))
    p_xz = latent_fact.sum(axis=1)
    path = work / "latent.npz"
    np.savez(
        path,
        mech=mech, latent_dense=latent_dense, observed_dense=observed_dense,
        rates=rates, latent_fact=latent_fact, observed_fact=observed_fact,
        ref_propensity=latent_dense[1].sum(axis=0) / latent_dense.sum(axis=(0, 1)),
        ref_effect=(latent_fact[1] * (p_z / p_xz[1])).sum(axis=-1),
    )
    return path


class LatentRestore:
    """The in-process library workload; its passes run in ``latent_worker.py``."""

    name = "latent-restore"

    def __init__(self, work: Path, seed: int, sizes: dict) -> None:
        self.work, self.seed, self.sizes = work, seed, sizes

    def setup(self) -> None:
        self.inputs = latent_inputs(self.work, self.seed, self.sizes)

    def worker(self, spawner: Spawner, seconds: float, trace: int) -> tuple[dict, float]:
        """Worker result document and the worker's peak RSS in MB."""
        result = self.work / "latent_result.json"
        result.unlink(missing_ok=True)
        log = self.work / "latent_worker.log"
        code, rss = spawner.run(
            [sys.executable, str(WORKER), str(self.inputs), repr(seconds), str(trace), str(result)],
            log)
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"latent worker exited {code}:\n{tail}")
        return json.loads(result.read_text()), rss
