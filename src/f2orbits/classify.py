"""Closed-form orbit censuses of the two actions, orbit-type labeling,
and prediction-vs-enumeration verification reports.

For n >= 5 the full per-stratum layout of both actions is known in
closed form, the first action's derived from the second's through psi;
`_orbit_count` gives every expected orbit count, with the observed
counts tabled below n = 5.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .f2la import F2Vector
from .actions import ActionKind, ActionSpec, height_functionals, psi_height
from .lattice import build, hex_lattice_graph, predict_census_nonspecial
from .orbits import OrbitCensus, _record_diff, attach_labels, enumerate_orbits

TRIVIAL = "trivial"
STANDARD = "standard"
TYPE1 = "type1"
TYPE2 = "type2"
TYPE3 = "type3"
TYPE4 = "type4"
TYPE5 = "type5"
_LABELS = (TRIVIAL, STANDARD, TYPE1, TYPE2, TYPE3, TYPE4, TYPE5)   # the tables' row order

_EXCEPTIONAL_SHARP = {2: 2, 3: 6, 4: 20, 5: 52}
_EXCEPTIONAL_SECOND = {2: 2, 3: 3, 4: 6}


def epsilon(k: int) -> int:
    """The sign in the odd-case cardinalities: -1 iff k = 4t + 1."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return -1 if k % 4 == 1 else 1


def sharp(n_plus_1: int) -> int:
    """Number of orbits of the first action of order n = n_plus_1 - 1.

    Four exceptional small values, then 3 * 2^n.
    """
    if n_plus_1 < 2:
        raise ValueError(f"need n+1 >= 2, got {n_plus_1}")
    if n_plus_1 in _EXCEPTIONAL_SHARP:
        return _EXCEPTIONAL_SHARP[n_plus_1]
    return 3 << (n_plus_1 - 1)


def _orbit_count(n: int, kind: ActionKind) -> int:
    """Orbit count of the action of order n: 2^(n//2) + 2 for the second
    from n = 5.  A conjugate kind is the dual action of its base kind, so
    by Brauer's permutation lemma (see `verify`) it has the same count."""
    if kind.is_first:
        return sharp(n + 1)
    return _EXCEPTIONAL_SECOND.get(n, (1 << n // 2) + 2)


def h_bar(n: int) -> F2Vector:
    """The distinguished height for even n: (1,0,1,0,...) on the first
    half, zeros on the second."""
    if n % 2:
        raise ValueError(f"defined for even n only, got {n}")
    bits = 0
    for i in range(0, n // 2, 2):
        bits |= 1 << i
    return F2Vector(n, bits)


def eta_bar(k: int) -> F2Vector:
    """The distinguished second-action height: (1,...,1, k mod 2)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    bits = (1 << (k - 1)) - 1
    if k % 2:
        bits |= 1 << (k - 1)
    return F2Vector(k, bits)


@dataclass(frozen=True)
class PredictedCensus:
    """Closed-form census: the per-stratum layout, from which every other
    view is read."""

    n: int
    kind: ActionKind
    by_height: dict[int, tuple[tuple[str, int], ...]]  # height bits -> (label, cardinality)*

    @property
    def state_dim(self) -> int:
        return ActionSpec(self.n, self.kind).state_dim

    @cached_property
    def rows(self) -> tuple[tuple[str, int, int], ...]:
        """(label, cardinality, orbit count), in label then cardinality order."""
        counts = Counter(row for rows in self.by_height.values() for row in rows)
        return tuple(sorted(((label, card, cnt) for (label, card), cnt in counts.items()),
                            key=lambda row: (_LABELS.index(row[0]), row[1])))

    @property
    def orbit_count(self) -> int:
        return sum(count for _, _, count in self.rows)

    @property
    def total_states(self) -> int:
        return sum(card * count for _, card, count in self.rows)

    def cardinality_multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, card, count in self.rows:
            out[card] = out.get(card, 0) + count
        return out


def predict_first(n: int) -> PredictedCensus:
    """Per-stratum layout of the first action for n >= 5, pulled back
    from `predict_second` through the order-lowering map psi.

    psi maps the first action of order n onto the second, and the first
    stratum at height h onto the second stratum at psi_height(h).  Over a
    second orbit O of size |O| lie 2^(k-s) first orbits of |O| 2^s each
    (k = n // 2), where s = 0 for the fixed point (which lifts to 2^k
    singletons), s = k at the degenerate image height (zero for odd n,
    eta_bar(k) for even n) and s = k - 1 elsewhere.  This gives Table 1:

    Odd n = 2k+1: each symmetric stratum holds one orbit of
    2^(2k^2+k-1) - eps_k 2^(k^2+k-1), one of
    2^(2k^2+k-1) + eps_k 2^(k^2+k-1) - 2^k, and 2^k singletons; every
    nonsymmetric stratum holds two orbits of 2^(2k^2+k-1).

    Even n = 2k: symmetric strata hold two orbits of
    (2^(2k(k-1)) - 1) 2^(k-1) plus 2^k singletons; the 2^k strata whose
    height differs from the symmetric ones by `h_bar` split as
    (2^(k(k-1)) - 1) 2^(k^2-1) and (2^(k(k-1)) + 1) 2^(k^2-1); the rest
    hold two orbits of 2^(2k^2-k-1).
    """
    if n < 5:
        raise ValueError(f"no closed form below n=5 (got {n}); enumerate instead")
    k = n // 2
    second = predict_second(n)
    degenerate = eta_bar(k).bits if n % 2 == 0 else 0
    by_height: dict[int, tuple[tuple[str, int], ...]] = {}
    for h in range(1 << n):
        eta = psi_height(F2Vector(n, h)).bits
        rows: list[tuple[str, int]] = []
        for label, card in second.by_height[eta]:
            s = 0 if label == TRIVIAL else k if eta == degenerate else k - 1
            rows += [(label, card << s)] * (1 << (k - s))
        by_height[h] = tuple(rows)
    pred = PredictedCensus(n, ActionKind.FIRST, by_height)
    _check_internal(pred)
    return pred


def predict_second(n: int) -> PredictedCensus:
    """Per-stratum layout of the second action for n >= 5.

    Odd n = 2k+1: height 0 holds orbits of 2^(2k^2-1) -+ eps_k 2^(k^2-1)
    (the larger one short by the fixed point, which is its own orbit);
    every other height is a single orbit of 2^(2k^2).

    Even n = 2k: height 0 holds 2^(2k(k-1)) - 1 plus the fixed point;
    the distinguished height splits as (2^(k(k-1)) -+ 1) 2^(k(k-1)-1);
    every other height is a single orbit of 2^(2k(k-1)).
    """
    if n < 5:
        raise ValueError(f"no closed form below n=5 (got {n}); enumerate instead")
    k = n // 2
    if n % 2:
        eps = epsilon(k)
        card1 = (1 << (2 * k * k - 1)) - eps * (1 << (k * k - 1))
        card2 = (1 << (2 * k * k - 1)) + eps * (1 << (k * k - 1)) - 1
        standard = 1 << (2 * k * k)
        special = {0: ((TRIVIAL, 1), (TYPE1, card1), (TYPE2, card2))}
    else:
        card3 = (1 << (2 * k * (k - 1))) - 1
        card4 = ((1 << (k * (k - 1))) - 1) << (k * (k - 1) - 1)
        card5 = ((1 << (k * (k - 1))) + 1) << (k * (k - 1) - 1)
        standard = 1 << (2 * k * (k - 1))
        special = {0: ((TRIVIAL, 1), (TYPE3, card3)),
                   eta_bar(k).bits: ((TYPE4, card4), (TYPE5, card5))}
    by_height = dict.fromkeys(range(1 << k), ((STANDARD, standard),))
    by_height.update(special)
    pred = PredictedCensus(n, ActionKind.SECOND, by_height)
    _check_internal(pred)
    return pred


def _check_internal(pred: PredictedCensus) -> None:
    if pred.total_states != 1 << pred.state_dim:
        raise AssertionError("predicted cardinalities do not sum to the space size")
    expected = _orbit_count(pred.n, pred.kind)
    if pred.orbit_count != expected:
        raise AssertionError(
            f"predicted orbit total {pred.orbit_count}, expected {expected}")


def predict(n: int, kind: ActionKind) -> PredictedCensus:
    if kind is ActionKind.FIRST:
        return predict_first(n)
    if kind is ActionKind.SECOND:
        return predict_second(n)
    raise ValueError(f"no closed-form census for {kind.value}")


class LabelingError(ValueError):
    """A record matched zero or several predicted row types."""


def label_orbits(census: OrbitCensus, prediction: PredictedCensus) -> OrbitCensus:
    """Tag each enumerated orbit with its predicted type label.

    A record is matched by (height, cardinality) inside its stratum; the
    match must pin down exactly one label.
    """
    if census.n != prediction.n or census.kind != prediction.kind.value:
        raise ValueError("census and prediction describe different actions")
    labels: dict[int, str] = {}
    for rec in census.records:
        if rec.height is None:
            raise LabelingError("census records carry no heights")
        rows = prediction.by_height.get(rec.height.bits)
        if rows is None:
            raise LabelingError(f"no predicted stratum at height {rec.height.to_string()}")
        found = {label for label, card in rows if card == rec.cardinality}
        if len(found) != 1:
            raise LabelingError(
                f"orbit of size {rec.cardinality} at height {rec.height.to_string()} "
                f"matches {sorted(found) or 'no'} predicted rows")
        labels[rec.representative.bits] = found.pop()
    return attach_labels(census, labels)


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    observed: str

    @property
    def ok(self) -> bool:
        return self.observed == self.expected


@dataclass(frozen=True)
class VerifyReport:
    """Structured diff between prediction and enumeration."""

    n: int
    kind: ActionKind
    mode: str                     # "closed-form", "observed" or "conjugate-count"
    checks: tuple[CheckResult, ...]
    census: OrbitCensus

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = [f"verify {self.kind.value} n={self.n} ({self.mode} mode)"]
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name}: expected {c.expected}, observed {c.observed}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "kind": self.kind.value,
            "mode": self.mode,
            "passed": self.passed,
            "checks": [{"name": c.name, "expected": c.expected,
                        "observed": c.observed, "ok": c.ok} for c in self.checks],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _multiset_str(ms: dict[int, int]) -> str:
    return "{" + ", ".join(f"{card}x{cnt}" for card, cnt in sorted(ms.items())) + "}"


def verify(n: int, kind: ActionKind, workers: Optional[int] = None) -> VerifyReport:
    """Enumerate once and diff against the expected census.  Base kinds
    from n = 5 take the closed form ("closed-form" mode); base kinds below
    n = 5 ("observed") and conjugate kinds ("conjugate-count") take the
    orbit count of `_orbit_count`.  A conjugate kind's generators are the
    transposes of its base kind's, so it is the dual action on V*, and
    Brauer's permutation lemma gives a finite linear group equal
    permutation characters on V and V*: the two actions have the same
    number of orbits, though not necessarily the same orbit sizes.  From
    n = 5 each conjugate kind adds one check of its orbit sizes.
    first-conj compares its cardinality multiset with `predict_first`'s:
    a symmetric invertible T with T phi_v = psi_v for every generator v
    (one linear solve finds it for n = 3..10 and 12) gives
    <phi_v, Tx> = <psi_v, x>, so x -> Tx carries the first action's
    orbits onto first-conj's.  second-conj compares its
    (representative, cardinality) records with `predict_census_nonspecial`
    of the graph lattice whose transvections are its generators,
    `build(hex_lattice_graph(n))`: from n = 5 that graph holds an
    induced E6, which licenses the prediction."""
    spec = ActionSpec(n, kind)
    census = enumerate_orbits(spec, workers=workers)
    conjugate = kind in (ActionKind.FIRST_CONJUGATE, ActionKind.SECOND_CONJUGATE)
    if conjugate or n < 5:
        name, mode = (("orbit count equals the base action's", "conjugate-count")
                      if conjugate else ("orbit count (exceptional table)", "observed"))
        checks = [CheckResult(name, str(_orbit_count(n, kind)), str(census.orbit_count))]
        if kind is ActionKind.FIRST_CONJUGATE and n >= 5:
            checks.append(CheckResult(
                "cardinality multiset equals the first action's",
                _multiset_str(predict_first(n).cardinality_multiset()),
                _multiset_str(census.cardinality_multiset())))
        if kind is ActionKind.SECOND_CONJUGATE and n >= 5:
            pred = predict_census_nonspecial(build(hex_lattice_graph(n)))
            checks.append(CheckResult("records equal the hex lattice prediction", "match",
                                      _record_diff(pred, census) or "match"))
        return VerifyReport(n, kind, mode, tuple(checks), census)
    pred = predict(n, kind)
    t = len(height_functionals(spec))
    observed_by_height = census.by_height()
    strata = ((h, sorted(r.cardinality for r in observed_by_height.get(h, ())),
               sorted(card for _, card in rows)) for h, rows in pred.by_height.items())
    layout = next((f"height {F2Vector(t, h).to_string()}: {obs} != {exp}"
                   for h, obs, exp in strata if obs != exp), "match")
    try:
        label_orbits(census, pred)
        labeling = "unambiguous"
    except LabelingError as exc:
        labeling = str(exc)
    checks = (CheckResult("orbit count", str(pred.orbit_count), str(census.orbit_count)),
              CheckResult("cardinality multiset",
                          _multiset_str(pred.cardinality_multiset()),
                          _multiset_str(census.cardinality_multiset())),
              CheckResult("per-stratum layout", "match", layout),
              CheckResult("type labeling", "unambiguous", labeling))
    return VerifyReport(n, kind, "closed-form", checks, census)
