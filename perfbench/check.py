"""Output checks for the fed benchmark.

Each job's output is reduced by `extract` to the values that are compared,
then checked three ways:

* against the values recorded from an earlier commit for the same seed
  (`expected/<workload>.jsonl`, written by `record.py`): exact `Fraction`
  strings must be equal, floats must agree within `TOL`;
* against invariants that need no recorded values (guarantee below the
  achieved ratio, non-negative bound slack, energy above its floor, the
  fixture exact values, r_2 = (3 + sqrt 5)/6);
* against an independent solver: every maximum-weight fractional matching
  value equals half the networkx maximum-weight matching on the bipartite
  double cover of the merged graph.

A failed check is a failed job, never a crash.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path

from gen import BELOW_FLOOR, read_edge_list

R2 = (3 + math.sqrt(5)) / 6

# (mode, tolerance), taken from the acceptance suite where it pins one.
TOL = {
    "kappa": ("abs", 1e-3),
    "r": ("abs", 1e-6),
    "guarantee": ("abs", 1e-6),
    "energy": ("rel", 1e-3),  # 1e-9 when kappa is unchanged, see _compare
    "achieved_vs_bound": ("rel", 1e-3),
    "r_d": ("abs", 1e-3),
    "kappa_d": ("abs", 1e-3),
    "lambda_max": ("abs", 1e-8),
    "fm_value": ("abs", 1e-9),
    "bound": ("abs", 1e-9),
    "slack": ("abs", 1e-8),
    "var_energy": ("abs", 1e-3),
    "var_ratio": ("abs", 1e-3),
    "energies": ("rel", 1e-9),
    "min_floor_slack": ("abs", 1e-9),
}
EXACT = ("matching_value", "mwfm_value", "s", "s_hat", "edges", "var_restarts", "error")


def read_edges(path: str) -> dict:
    """Edge-list file as {sorted label pair: summed weight}."""
    merged: dict = {}
    for u, v, w in read_edge_list(Path(path)):
        key = tuple(sorted((u, v)))
        merged[key] = merged.get(key, Fraction(0)) + w
    return merged


@lru_cache(maxsize=None)
def reference_mwfm(path: str) -> Fraction:
    """Half the maximum-weight matching on the bipartite double cover.

    The fractional-matching LP on G equals half the bipartite matching LP on
    its double cover (v -> v', v''; uv -> u'v'' and v'u''), whose polytope
    is integral. Weights are scaled to integers so networkx works exactly.
    """
    import networkx as nx

    merged = read_edges(path)
    scale = lcm(*(w.denominator for w in merged.values()))
    cover = nx.Graph()
    for (u, v), w in merged.items():
        cover.add_edge((u, 0), (v, 1), weight=int(w * scale))
        cover.add_edge((v, 0), (u, 1), weight=int(w * scale))
    matched = nx.max_weight_matching(cover)
    total = sum(merged[tuple(sorted((a[0], b[0])))] for a, b in matched)
    return total / 2


def _error_type(status: str, output: dict) -> str:
    try:
        return json.loads(output["stderr"])["error"]["type"]
    except (KeyError, ValueError, TypeError):
        return output.get("error") or status


def extract(job: dict, status: str, output: dict) -> dict:
    """The compared values of one job's output."""
    if status != "ok":
        return {"error": _error_type(status, output)}
    if job["kind"] == "energy":
        return dict(output)
    data = json.loads(output["stdout"])
    if job["kind"] == "certify":
        keys = ("matching_value", "mwfm_value", "s", "s_hat", "kappa", "r", "guarantee",
                "energy", "achieved_vs_bound")
        return {k: data[k] for k in keys}
    if job["kind"] == "table":
        return {"d": [row["d"] for row in data], "r_d": [row["r_d"] for row in data],
                "kappa_d": [row["kappa_d"] for row in data]}
    values = {k: data[k] for k in ("lambda_max", "fm_value", "bound", "slack")}
    if "residual" in data:
        values["residual"] = data["residual"]
    if "variational" in data:
        var = data["variational"]
        values.update(var_energy=var["energy"], var_ratio=var["ratio"], var_restarts=var["restarts"])
    return values


def _close(key: str, got, want, tol=None) -> bool:
    mode, eps = tol or TOL[key]
    if isinstance(want, list):
        return len(got) == len(want) and all(_close(key, g, w, tol) for g, w in zip(got, want))
    scale = max(abs(want), 1e-300) if mode == "rel" else 1.0
    return abs(got - want) <= eps * scale


def _compare(values: dict, recorded: dict) -> list:
    problems = []
    for key, want in recorded.items():
        got = values.get(key)
        if got is None:
            problems.append(f"{key} missing, recorded {want!r}")
        elif key in EXACT or key not in TOL:
            if got != want:
                problems.append(f"{key} = {got!r}, recorded {want!r}")
        else:
            tol = None
            if key == "energy" and abs(values["kappa"] - recorded["kappa"]) <= 1e-12:
                tol = ("rel", 1e-9)
            if not _close(key, got, want, tol):
                problems.append(f"{key} = {got!r}, recorded {want!r}")
    return problems


def _invariants(job: dict, values: dict) -> list:
    problems = []
    kind = job["kind"]
    if kind == "certify":
        if values["guarantee"] > values["achieved_vs_bound"] + 1e-9:
            problems.append(
                f"guarantee {values['guarantee']} above achieved {values['achieved_vs_bound']}"
            )
        ref = reference_mwfm(job["graph"])
        if Fraction(values["mwfm_value"]) != ref:
            problems.append(f"mwfm_value {values['mwfm_value']} != networkx {ref}")
        for key, want in job.get("exact", {}).items():
            if values[key] != want:
                problems.append(f"{key} = {values[key]}, exact value is {want}")
    elif kind == "table":
        if values["d"] != list(range(2, job["d"] + 1)):
            problems.append(f"table rows {values['d'][:3]}... do not cover d = 2..{job['d']}")
        elif abs(values["r_d"][0] - R2) > 1e-4:
            problems.append(f"r_2 = {values['r_d'][0]}, expected (3+sqrt 5)/6 = {R2}")
    elif kind == "energy":
        if values["min_floor_slack"] < -1e-9:
            problems.append(f"{BELOW_FLOOR}: edge energy {values['min_floor_slack']} below its floor")
        if values["edges"] != job["props"]["edges"]:
            problems.append(f"{values['edges']} edges evaluated, file has {job['props']['edges']}")
    else:
        if values["slack"] < -1e-8:
            problems.append(f"bound slack {values['slack']} < -1e-8")
        if values.get("residual", 0.0) > 1e-8:
            problems.append(f"eigenpair residual {values['residual']} > 1e-8")
        ref = reference_mwfm(job["graph"])
        if abs(values["fm_value"] - float(ref)) > 1e-9:
            problems.append(f"fm_value {values['fm_value']} != networkx {ref}")
        weight = float(sum(read_edges(job["graph"]).values()))
        if abs(values["bound"] - (weight + values["fm_value"])) > 1e-9:
            problems.append(f"bound {values['bound']} != total weight + fm_value")
        if kind == "variational":
            if values["var_energy"] > values["lambda_max"] + 1e-8:
                problems.append(f"variational energy {values['var_energy']} above lambda_max")
            want = int(job["argv"][job["argv"].index("--restarts") + 1])
            if values["var_restarts"] != want:
                problems.append(f"{values['var_restarts']} restarts reported, {want} asked")
    return problems


def check_job(job: dict, status: str, output: dict, recorded: dict | None) -> tuple[bool, list]:
    """(failed, problems). A known failure is an error type or the name of
    an invariant; a job that fails only that way is failed without
    problems. A job that raised the known error and later succeeds gets
    the invariants only."""
    known = job.get("known_failure")
    try:
        values = extract(job, status, output)
        if status != "ok":
            if known and values["error"] == known:
                return True, []
            return True, [f"{job['id']}: unexpected failure: {status}"]
        problems = _invariants(job, values)
        if recorded is not None and "error" not in recorded:
            if known == BELOW_FLOOR:  # the recorded slack is the defect; a fix may change it
                recorded = {k: v for k, v in recorded.items() if k != "min_floor_slack"}
            problems += _compare(values, recorded)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    if known and problems and all(p.startswith(f"{known}:") for p in problems):
        return True, []
    return bool(problems), [f"{job['id']}: {p}" for p in problems]
