"""Finite-index surrogates for comparing growth rates of definable sets.

log|X_n| plays the role of a dimension: two families have the same
dimension when their size ratio stays bounded, and different dimensions
when the log-ratio diverges.  At finite scale this is necessarily a
heuristic, so every verdict carries its evidence (the per-index log-ratio
list) and the thresholds that produced it, and "undetermined" is a
first-class outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .counting import CardinalitySequence
from .families import FamilyError, FamilyHandle, family_sequence
from .logic import PfdimError

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
                  tau: float = TAU_DEFAULT) -> DeltaVerdict:
    """Classify the growth of |X_n| against |Y_n|.

    'equal' when the tail log-ratios all stay within tau; 'greater'/'less'
    when the tail log-ratio moves strictly monotonically with total rise at
    least ln(3/2), or has already crossed tau — a bounded ratio can do
    neither.  Anything else is 'undetermined'.  Zero counts enter as -inf.
    The tail is the second half of the indices (``burn_in``, the first
    half, is skipped).
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
    i0 = len(ratios) // 2
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


def chain_detect(family: FamilyHandle,
                 steps: Sequence[Tuple[str, Optional[str]]],
                 indices: Sequence[int],
                 tau: float = TAU_DEFAULT) -> ChainReport:
    """Sizes of the nested conjunctions of the given instance steps at the
    sorted distinct indices, and the longest prefix along which each step
    strictly drops the dimension (consecutive 'greater' verdicts).  A zero
    count terminates the chain.
    """
    steps = tuple([(f, s) for f, s in steps])

    def prefix_counts(at):
        counts = []
        for phi, params in at.conjunctions(steps):
            try:
                at.check_one_counted(phi, params)
                counts.append(at.count(phi, params))
            except FamilyError as exc:
                raise DimensionError(f"chain formula: {exc}") from exc
        return counts

    points = family_sequence(family, indices, prefix_counts)
    seqs = [CardinalitySequence(family.family_id, text, selector,
                                tuple([(n, row[j]) for n, row in points]))
            for j, (text, selector) in enumerate(steps)]
    verdicts = [delta_compare(a, b, tau).classification
                for a, b in zip(seqs, seqs[1:])]
    drop = 1
    for seq, v in zip(seqs[1:], verdicts):
        if v == "greater" and all(c.value > 0 for _, c in seq.points):
            drop += 1
        else:
            break
    return ChainReport(steps, tuple([n for n, _ in points]),
                       tuple([tuple(seq.log_values) for seq in seqs]),
                       tuple(verdicts), drop, tau)


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
    """Distinct log-counts of {phi(x, b) : b} at each of the sorted
    distinct indices, clustered with gap gamma.  The 'unbounded' flag marks
    a cluster count that strictly increases across every sampled index —
    evidence against the family having finitely many dimension values for
    this formula."""
    points = family_sequence(family, indices,
                             lambda at: tuple(at.spectrum(phi_text)))
    rows = tuple([logs for _, logs in points])
    clusters = tuple([cluster_count(logs, gamma) for logs in rows])
    unbounded = (len(clusters) >= 2
                 and all(b > a for a, b in zip(clusters, clusters[1:])))
    return SpectrumReport(family.family_id, phi_text,
                          tuple([n for n, _ in points]), rows, clusters, gamma,
                          unbounded)


# ---------------------------------------------------------------------------
# export


def export_csv(report: SpectrumReport, path: str) -> None:
    """A spectrum's (index, series, log-count) rows for plotting, series k
    being the k-th distinct log-count at that index."""
    import csv
    if not isinstance(report, SpectrumReport):
        raise DimensionError(f"cannot export {type(report).__name__}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "series", "logCount"])
        for n, row in zip(report.indices, report.log_counts):
            for k, v in enumerate(row):
                writer.writerow([n, k, v])
