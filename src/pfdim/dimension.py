"""Finite-index surrogates for comparing growth rates of definable sets.

log|X_n| plays the role of a dimension: two families have the same
dimension when their size ratio stays bounded, and different dimensions
when the log-ratio diverges.  At finite scale this is necessarily a
heuristic, so every verdict carries its evidence (the per-index log-ratio
list) and the thresholds that produced it, and "undetermined" is a
first-class outcome.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .counting import CardinalitySequence, Count
from .families import (FamilyAt, FamilyError, FamilyHandle,
                       check_one_counted, spectrum_logcounts)
from .logic import And, PfdimError, rename_free
from .parser import parse_formula

TAU_DEFAULT = math.log(100.0)
GAMMA_DEFAULT = 0.2
TREND_MARGIN = math.log(1.5)
MIN_INDICES = 4
NEG_INF = float("-inf")


class DimensionError(PfdimError):
    pass


# ---------------------------------------------------------------------------
# delta comparison


@dataclass(frozen=True)
class DeltaVerdict:
    classification: str  # equal | less | greater | undetermined
    log_ratios: Tuple[float, ...]
    indices: Tuple[int, ...]
    tau: float
    burn_in: int

    def to_json_dict(self) -> dict:
        return {"classification": self.classification,
                "indices": list(self.indices),
                "logRatios": [_json_float(r) for r in self.log_ratios],
                "tau": self.tau, "burnIn": self.burn_in}


def _json_float(x: float):
    if x == NEG_INF:
        return "-inf"
    if x == float("inf"):
        return "inf"
    return x


def delta_compare(X: CardinalitySequence, Y: CardinalitySequence,
                  tau: float = TAU_DEFAULT,
                  burn_in: Optional[int] = None) -> DeltaVerdict:
    """Classify the growth of |X_n| against |Y_n|.

    'equal' when the tail log-ratios all stay within tau; 'greater'/'less'
    when the tail log-ratio moves strictly monotonically with total rise at
    least ln(3/2), or has already crossed tau — a bounded ratio can do
    neither.  Anything else is 'undetermined'.  Zero counts enter as -inf.
    """
    if X.indices != Y.indices:
        raise DimensionError("sequences sample different indices")
    ratios = []
    for lx, ly in zip(X.log_values, Y.log_values):
        if lx == NEG_INF and ly == NEG_INF:
            ratios.append(0.0)
        elif ly == NEG_INF:
            ratios.append(float("inf"))
        else:
            ratios.append(lx - ly)
    i0 = len(ratios) // 2 if burn_in is None else burn_in
    verdict = _classify(ratios, i0, tau)
    return DeltaVerdict(verdict, tuple(ratios), tuple(X.indices), tau, i0)


def _classify(ratios: List[float], i0: int, tau: float) -> str:
    if len(ratios) < MIN_INDICES:
        return "undetermined"
    tail = ratios[i0:]
    if len(tail) < 2:
        return "undetermined"
    if any(math.isinf(r) for r in tail):
        if all(r == float("inf") for r in tail):
            return "greater"
        if all(r == NEG_INF for r in tail):
            return "less"
        return "undetermined"
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    rise = tail[-1] - tail[0]
    if increasing and (rise >= TREND_MARGIN or tail[-1] > tau):
        return "greater"
    if decreasing and (-rise >= TREND_MARGIN or tail[-1] < -tau):
        return "less"
    if max(abs(r) for r in tail) <= tau:
        return "equal"
    return "undetermined"


# ---------------------------------------------------------------------------
# chains of instances with strictly dropping size


@dataclass(frozen=True)
class ChainReport:
    steps: Tuple[Tuple[str, Optional[str]], ...]  # (formula, selector)
    indices: Tuple[int, ...]
    log_counts: Tuple[Tuple[float, ...], ...]  # [step][index]
    verdicts: Tuple[str, ...]  # consecutive-step comparisons
    drop_length: int
    tau: float

    def to_json_dict(self) -> dict:
        return {"steps": [{"formula": f, "selector": s} for f, s in self.steps],
                "indices": list(self.indices),
                "logCounts": [[_json_float(v) for v in row]
                              for row in self.log_counts],
                "verdicts": list(self.verdicts),
                "dropLength": self.drop_length, "tau": self.tau}


def _chain_prefix_counts(family: FamilyHandle, steps, index: int) -> List[int]:
    """Counts of every prefix conjunction of the steps at one index, each
    step parsed once and conjoined onto the previous prefix."""
    at = FamilyAt(family, index)
    conj = None
    params: Dict[str, object] = {}
    out = []
    for j, (text, selector) in enumerate(steps):
        phi = parse_formula(text, at.signature)
        if selector is not None:
            fresh = f"y{j + 1}"
            phi = rename_free(phi, "y", fresh)
            params[fresh] = at.selector(selector)["y"]
        conj = phi if conj is None else And(conj, phi)
        try:
            check_one_counted(conj, params)
            out.append(at.count(conj, params).value)
        except FamilyError as exc:
            raise DimensionError(f"chain formula: {exc}") from exc
    return out


def chain_detect(family: FamilyHandle,
                 steps: Sequence[Tuple[str, Optional[str]]],
                 indices: Sequence[int],
                 tau: float = TAU_DEFAULT,
                 burn_in: Optional[int] = None) -> ChainReport:
    """Sizes of the nested conjunctions of the given instance steps, and
    the longest prefix along which each step strictly drops the dimension
    (consecutive 'greater' verdicts).  A zero count terminates the chain.
    """
    steps = tuple((f, s) for f, s in steps)
    indices = tuple(indices)
    per_index = [_chain_prefix_counts(family, steps, n) for n in indices]
    counts = [[row[i] for row in per_index] for i in range(len(steps))]
    rows = [tuple(math.log(c) if c else NEG_INF for c in per_step)
            for per_step in counts]
    verdicts = []
    for i in range(len(steps) - 1):
        seq_a = CardinalitySequence(family.family_id, steps[i][0], steps[i][1],
                                    tuple(zip(indices, map(Count, counts[i]))))
        seq_b = CardinalitySequence(family.family_id, steps[i + 1][0],
                                    steps[i + 1][1],
                                    tuple(zip(indices, map(Count, counts[i + 1]))))
        verdicts.append(delta_compare(seq_a, seq_b, tau, burn_in).classification)
    drop = 1
    for i, v in enumerate(verdicts):
        if all(c > 0 for c in counts[i + 1]) and v == "greater":
            drop += 1
        else:
            break
    return ChainReport(steps, indices, tuple(rows), tuple(verdicts), drop, tau)


# ---------------------------------------------------------------------------
# spectra of parameterized counts


@dataclass(frozen=True)
class SpectrumReport:
    family_id: str
    formula: str
    indices: Tuple[int, ...]
    log_counts: Tuple[Tuple[float, ...], ...]  # distinct, sorted, per index
    cluster_counts: Tuple[int, ...]
    gamma: float
    unbounded: bool

    def to_json_dict(self) -> dict:
        return {"familyId": self.family_id, "formula": self.formula,
                "indices": list(self.indices),
                "logCounts": [[_json_float(v) for v in row]
                              for row in self.log_counts],
                "clusterCounts": list(self.cluster_counts),
                "gamma": self.gamma, "unbounded": self.unbounded}


def cluster_count(values: Sequence[float], gamma: float) -> int:
    """Single-linkage clusters of sorted values with linking gap gamma."""
    vals = sorted(values)
    if not vals:
        return 0
    return 1 + sum(1 for a, b in zip(vals, vals[1:]) if b - a > gamma)


def fmv_spectrum(family: FamilyHandle, phi_text: str,
                 indices: Sequence[int],
                 gamma: float = GAMMA_DEFAULT) -> SpectrumReport:
    """Distinct log-counts of {phi(x, b) : b} per index, clustered with gap
    gamma.  The 'unbounded' flag marks a cluster count that strictly
    increases across every sampled index — evidence against the family
    having finitely many dimension values for this formula."""
    indices = tuple(indices)
    rows = []
    clusters = []
    for n in indices:
        logs = spectrum_logcounts(family, phi_text, n)
        rows.append(tuple(logs))
        clusters.append(cluster_count(logs, gamma))
    unbounded = (len(clusters) >= 2
                 and all(b > a for a, b in zip(clusters, clusters[1:])))
    return SpectrumReport(family.family_id, phi_text, indices, tuple(rows),
                          tuple(clusters), gamma, unbounded)


# ---------------------------------------------------------------------------
# export


def export_json(report, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)


def export_csv(report, path: str) -> None:
    """(index, series, log-count) rows for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "series", "logCount"])
        if isinstance(report, SpectrumReport):
            for n, row in zip(report.indices, report.log_counts):
                for k, v in enumerate(row):
                    writer.writerow([n, k, v])
        elif isinstance(report, ChainReport):
            for step, row in enumerate(report.log_counts, start=1):
                for n, v in zip(report.indices, row):
                    writer.writerow([n, step, v])
        elif isinstance(report, DeltaVerdict):
            for n, v in zip(report.indices, report.log_ratios):
                writer.writerow([n, "logRatio", v])
        else:
            raise DimensionError(f"cannot export {type(report).__name__}")
