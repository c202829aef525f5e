"""Child process of the latent-restore workload.

    python latent_worker.py <inputs.npz> <seconds> <trace 0|1> <result.json>

Runs the library pipeline on the inputs ``workloads.latent_inputs`` wrote,
checks each pass against the reference values stored with them, and
writes the pass timings (and, when tracing, the spans) as JSON.  It runs
apart from the benchmark process so that its peak RSS excludes input
generation.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from effectrestore.errors import EffectRestoreError
from effectrestore.mechanism import BinaryErrorParams, ErrorMatrix, component_mechanism
from effectrestore.restore import (
    propensity_profile,
    pushforward,
    restore_joint,
    restored_propensity,
    stratified_effect,
)
from effectrestore.tables import JointTable, adjust_for_confounder

from tracing import NO_SPANS, Tracer, patched
from workloads import outcome, timed_passes, traced_passes

#: restored tables and the quantities derived from them match the reference this closely
TOL = 1e-9


def pipeline(inp, tr) -> dict:
    """Dense mechanism: build, push forward, restore, restore the propensity.
    Factored mechanism: build, restore, adjust, stratify."""
    with tr.span("mechanism.ErrorMatrix"):
        mech = ErrorMatrix(entries=inp["mech"])
    with tr.span("restore.pushforward"):
        pushed = pushforward(JointTable(inp["latent_dense"], "Z"), mech)
    observed = JointTable(inp["observed_dense"], "W")
    with tr.span("restore.restore_joint.dense"):
        dense = restore_joint(observed, mech)
    p_w = observed.cells.sum(axis=(0, 1))
    score_w = observed.cells[1].sum(axis=0) / p_w
    with tr.span("restore.restored_propensity.dense"):
        propensity = restored_propensity(score_w, p_w, mech)

    with tr.span("mechanism.component_mechanism"):
        fmech = component_mechanism([BinaryErrorParams(eps, delta) for eps, delta in inp["rates"]])
    with tr.span("restore.restore_joint.factored"):
        factored = restore_joint(JointTable(inp["observed_fact"], "W"), fmech)
    with tr.span("tables.adjust_for_confounder"):
        effect = adjust_for_confounder(factored.restored, 1)
    with tr.span("restore.propensity_profile"):
        profile = propensity_profile(factored.restored, n_bins=20)
    with tr.span("restore.stratified_effect"):
        stratified = stratified_effect(factored.restored, profile, 1)
    return {
        "pushed": pushed.cells, "dense": dense.restored.cells, "propensity": propensity,
        "factored": factored.restored.cells, "effect": effect, "stratified": stratified,
    }


def _deviation(got: np.ndarray, ref: np.ndarray) -> str | None:
    if got.shape != ref.shape:
        return f"shape {got.shape} != reference {ref.shape}"
    dev = float(np.abs(got - ref).max())
    return None if dev <= TOL else f"max deviation {dev:.3e} > {TOL:.0e}"


def check(inp, out: dict) -> dict[str, str | None]:
    strat = out["stratified"]
    return {
        "pushforward": _deviation(out["pushed"], inp["observed_dense"]),
        "dense_round_trip": _deviation(out["dense"], inp["latent_dense"]),
        "restored_propensity": _deviation(out["propensity"], inp["ref_propensity"]),
        "factored_round_trip": _deviation(out["factored"], inp["latent_fact"]),
        "adjusted_effect": _deviation(out["effect"], inp["ref_effect"]),
        "stratified_is_distribution": None
        if strat.min() >= -1e-12 and abs(strat.sum() - 1.0) <= TOL
        else f"{strat.tolist()} is not a probability vector",
    }


def main(argv: list[str]) -> int:
    path, seconds, trace, result = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    with np.load(path) as data:
        inp = {key: data[key] for key in data.files}

    def checked_pass(tr) -> dict:
        t0 = time.perf_counter()
        try:
            out = pipeline(inp, tr)
        except EffectRestoreError as exc:
            return {"wall_s": time.perf_counter() - t0, "checks": [],
                    "failures": [f"{type(exc).__name__}: {exc}"]}
        wall = time.perf_counter() - t0
        return {"wall_s": wall, **outcome(check(inp, out))}

    def plain_pass() -> dict:
        return checked_pass(NO_SPANS)

    if not trace:
        warm, passes = timed_passes(plain_pass, seconds)
        doc = {"warm": warm, "passes": passes}
    else:
        tracer = Tracer()
        counted = [(fn, tracer.wrap(f"numpy.linalg.{fn.__name__}", fn))
                   for fn in (np.linalg.inv, np.linalg.solve)]

        def traced_pass() -> dict:
            pass_id = tracer.begin_pass()
            with patched([np.linalg], counted):
                result = checked_pass(tracer)
            result["summary"] = tracer.summary(pass_id)
            return result

        plain, traced = traced_passes(plain_pass, traced_pass, seconds)
        doc = {"plain": plain, "traced": traced, "spans": tracer.spans}
    with open(result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
