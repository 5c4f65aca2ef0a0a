"""Closed-form censuses, internal consistency, labeling, verification,
and the coherence between the two actions' predictions."""

import hashlib
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from f2orbits import classify
from f2orbits.actions import ActionKind, ActionSpec, generator_masks
from f2orbits.classify import (CheckResult, PredictedCensus, _orbit_count, epsilon, eta_bar,
                               h_bar, label_orbits, predict, predict_first, predict_second,
                               sharp, verify, LabelingError,
                               TRIVIAL, STANDARD, TYPE1, TYPE2, TYPE3, TYPE4, TYPE5)
from f2orbits.orbits import enumerate_orbits, orbit_of
from f2orbits.actions import psi_height
from f2orbits.f2la import F2Vector
from f2orbits.tri import TriMatrix, psi

from test_engine_properties import union_find_orbits


@pytest.fixture(scope="module", params=(5, 6))
def first_over_second(request):
    """n, the first census of n and, per record r of it, (r, the second
    orbit of psi(r.representative)): one pass of orbit_of feeds both the
    coherence and the label transport tests."""
    n = request.param
    spec2 = ActionSpec(n, ActionKind.SECOND)
    first = enumerate_orbits(ActionSpec(n, ActionKind.FIRST), workers=1)
    return n, first, [(r, orbit_of(spec2, psi(TriMatrix.from_bits(n, r.representative.bits))))
                      for r in first.records]


class TestScalars:
    @pytest.mark.parametrize("k,sign", [(1, -1), (2, 1), (3, 1), (4, 1), (5, -1), (9, -1)])
    def test_epsilon(self, k, sign):
        assert epsilon(k) == sign

    @pytest.mark.parametrize("m,value", [(2, 2), (3, 6), (4, 20), (5, 52),
                                         (6, 96), (7, 192), (8, 384), (10, 1536)])
    def test_sharp(self, m, value):
        assert sharp(m) == value

    def test_h_bar(self):
        assert h_bar(6).to_string() == "101000"
        assert h_bar(8).to_string() == "10100000"

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_psi_sends_h_bar_to_eta_bar(self, n):
        # the strata split in two by type4 and type5 lie over eta_bar
        assert psi_height(h_bar(n)) == eta_bar(n // 2)

    def test_eta_bar(self):
        assert eta_bar(3).to_string() == "111"
        assert eta_bar(4).to_string() == "1110"

    @pytest.mark.parametrize("k", [0, -1])
    def test_eta_bar_rejects_a_nonpositive_length(self, k):
        with pytest.raises(ValueError, match=rf"^k must be positive, got {k}$"):
            eta_bar(k)


class TestOrbitCountTable:
    """The counts below n = 5 against union-find over the generator masks,
    a route that shares no code with the engine."""

    @pytest.mark.parametrize("n,kind", [(n, kind) for kind in ActionKind
                                        for n in range(1 if kind.is_first else 2, 5)])
    def test_union_find_gives_the_table(self, n, kind):
        spec = ActionSpec(n, kind)
        space = SimpleNamespace(state_dim=spec.state_dim,
                                masked_generators=lambda: generator_masks(spec))
        count = len(union_find_orbits(space))
        assert count == _orbit_count(n, kind)
        assert count == (sharp(n + 1) if kind.is_first else {2: 2, 3: 3, 4: 6}[n])


class TestPredictFirst:
    def test_n5_rows(self):
        rows = dict(((label, card), count) for label, card, count in predict_first(5).rows)
        assert rows == {(TRIVIAL, 1): 32, (STANDARD, 512): 48,
                        (TYPE1, 480): 8, (TYPE2, 540): 8}

    def test_n6_rows(self):
        rows = dict(((label, card), count) for label, card, count in predict_first(6).rows)
        assert rows == {(TRIVIAL, 1): 64, (STANDARD, 16384): 96,
                        (TYPE3, 16380): 16, (TYPE4, 16128): 8, (TYPE5, 16640): 8}

    def test_n7_rows(self):
        rows = dict(((label, card), count) for label, card, count in predict_first(7).rows)
        assert rows == {(TRIVIAL, 1): 128, (STANDARD, 1048576): 224,
                        (TYPE1, 1046528): 16, (TYPE2, 1050616): 16}

    def test_n8_rows(self):
        rows = dict(((label, card), count) for label, card, count in predict_first(8).rows)
        assert rows == {(TRIVIAL, 1): 256, (STANDARD, 134217728): 448,
                        (TYPE3, 134217720): 32, (TYPE4, 134184960): 16,
                        (TYPE5, 134250496): 16}

    def test_n7_totals(self):
        pred = predict_first(7)
        assert pred.orbit_count == 384
        assert pred.total_states == 1 << 28

    @pytest.mark.parametrize("n", range(5, 11))
    def test_internal_consistency(self, n):
        pred = predict_first(n)
        assert pred.total_states == 1 << pred.state_dim
        assert pred.orbit_count == sharp(n + 1)

    @pytest.mark.parametrize("n,digest", [
        (9, "907f781ea8805d8edb4f79e4f1a4c3984f107f8c39051ccefd11ba5e10ab2a50"),
        (10, "139ccd83ff4efe5fa1ac1895468d12a2325b4e0def5621d407bedf017cd8035e"),
        (11, "1ecaa82edc7ece5a008097c74d1769dc75fb2c88df1ce3f2838413e501c8ce70"),
        (12, "661c0de6ea2e5f48d0d757ec77d9665037fd9da47e2b71964a17213426be0374"),
        (13, "15e9e6cecd1d16b7920e867080c94ebf4027a7bdb3dc1cc92b33fbf1a58e01c6"),
        (14, "0ea2dc2a36205bc0085d7c5c4c203c221fee903c01a4811a40bfebe8fd881f2f")])
    def test_layout_pinned(self, n, digest):
        # layouts whose degenerate height was written as eta_bar(k) (0 at odd
        # n), so the solved height is checked past the rows pinned above
        layout = repr(sorted(predict_first(n).by_height.items())).encode()
        assert hashlib.sha256(layout).hexdigest() == digest

    def test_refuses_small_n(self):
        with pytest.raises(ValueError):
            predict_first(4)

    def test_odd_and_even_types_disjoint(self):
        odd_labels = {label for label, _, _ in predict_first(7).rows}
        even_labels = {label for label, _, _ in predict_first(8).rows}
        assert TYPE1 in odd_labels and TYPE3 not in odd_labels
        assert TYPE3 in even_labels and TYPE1 not in even_labels


def table2_formulas(n):
    """Table 2 as the paper writes it, the reference for the layout that
    `predict_second` reads off the hex lattice's twisted form.

    Odd n = 2k+1: height 0 holds orbits of 2^(2k^2-1) -+ eps_k 2^(k^2-1)
    (the larger one short by the fixed point, which is its own orbit);
    every other height is a single orbit of 2^(2k^2).

    Even n = 2k: height 0 holds 2^(2k(k-1)) - 1 plus the fixed point;
    the height eta_bar(k) splits as (2^(k(k-1)) -+ 1) 2^(k(k-1)-1);
    every other height is a single orbit of 2^(2k(k-1)).
    """
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
    return by_height


class TestPredictSecond:
    @pytest.mark.parametrize("n", range(5, 21))
    def test_layout_is_table2(self, n):
        assert predict_second(n).by_height == table2_formulas(n)

    @pytest.mark.parametrize("n", range(5, 21))
    def test_split_height(self, n):
        # the one height whose twist c makes q_c vanish on the radical
        _, split = classify._split(n)
        assert split == (0 if n % 2 else eta_bar(n // 2).bits)

    def test_n5_layout(self):
        pred = predict_second(5)
        assert set(pred.by_height[0]) == {(TRIVIAL, 1), (TYPE1, 120), (TYPE2, 135)}
        for h in range(1, 4):
            assert pred.by_height[h] == ((STANDARD, 256),)

    def test_n6_layout(self):
        pred = predict_second(6)
        assert set(pred.by_height[0]) == {(TRIVIAL, 1), (TYPE3, 4095)}
        eb = eta_bar(3).bits
        assert set(pred.by_height[eb]) == {(TYPE4, 2016), (TYPE5, 2080)}
        standard = [h for h in pred.by_height if h not in (0, eb)]
        assert len(standard) == 6
        for h in standard:
            assert pred.by_height[h] == ((STANDARD, 4096),)

    def test_n8_totals(self):
        pred = predict_second(8)
        assert pred.orbit_count == 18
        assert pred.total_states == 1 << 28

    @pytest.mark.parametrize("n", range(5, 11))
    def test_internal_consistency(self, n):
        pred = predict_second(n)
        assert pred.total_states == 1 << pred.state_dim
        assert pred.orbit_count == (1 << (n // 2)) + 2


class TestPredictionIsItsLayout:
    def test_fields(self):
        assert [f.name for f in fields(PredictedCensus)] == ["n", "kind", "by_height"]
        assert [f.name for f in fields(CheckResult)] == ["name", "expected", "observed"]

    def test_views_follow_a_replaced_layout(self):
        # the first action at n = 5: height 1 holds two orbits of 512,
        # which grow by one state each
        pred = predict_first(5)
        assert pred.by_height[1] == ((STANDARD, 512),) * 2
        altered = replace(pred, by_height={**pred.by_height, 1: ((STANDARD, 513),) * 2})
        assert altered.state_dim == 15 and altered.orbit_count == 96
        assert altered.total_states == (1 << 15) + 2
        assert altered.cardinality_multiset() == {1: 32, 480: 8, 512: 46, 513: 2, 540: 8}

    def test_check_verdict_is_the_comparison(self):
        assert CheckResult("c", "match", "match").ok
        assert not CheckResult("c", "match", "record 0: x != y").ok


class TestCoherenceBetweenActions:
    """Each first-action stratum covers the second-action stratum at the
    image height; the covering degree is 2^k when the image height is the
    degenerate one (zero for odd n, the distinguished height for even n)
    and 2^(k-1) otherwise.  Orbit counts and sizes must line up."""

    @pytest.mark.parametrize("n", (5, 6, 7, 8))
    def test_predictions_cohere(self, n):
        k = n // 2
        first = predict_first(n)
        second = predict_second(n)
        degenerate = 0 if n % 2 else eta_bar(k).bits
        for h, rows in first.by_height.items():
            eta = psi_height(F2Vector(n, h)).bits
            down = second.by_height[eta]
            degree = (1 << k) if eta == degenerate else (1 << (k - 1))
            ratio = (1 << k) // degree
            expected = []
            for label, card in down:
                if label == TRIVIAL:
                    expected += [(TRIVIAL, 1)] * (1 << k)
                else:
                    expected += [(label, card * degree)] * ratio
            assert sorted(expected) == sorted(rows), (n, h, eta)


    def test_enumerated_orbits_lie_over_second_orbits(self, first_over_second):
        # the rule above, from both enumerations rather than the closed forms
        n, _, pairs = first_over_second
        k = n // 2
        degenerate = 0 if n % 2 else eta_bar(k).bits
        over: dict[tuple[int, int], list[int]] = {}
        for r, down in pairs:
            assert down.height == psi_height(r.height), (n, r)
            if r.cardinality == 1:
                s = 0
            else:
                s = k if down.height.bits == degenerate else k - 1
            assert r.cardinality == down.cardinality << s, (n, r, down)
            over.setdefault((r.height.bits, down.representative.bits), []).append(s)
        for (h, _), shifts in over.items():
            assert len(shifts) == 1 << (k - shifts[0]), (n, h)


class TestLabeling:
    def test_n5_labels(self):
        census = enumerate_orbits(ActionSpec(5, ActionKind.FIRST), workers=1)
        labeled = label_orbits(census, predict_first(5))
        by_card = {r.cardinality: r.type_label for r in labeled.records}
        assert by_card == {1: TRIVIAL, 480: TYPE1, 512: STANDARD, 540: TYPE2}

    def test_n6_second_labels(self):
        census = enumerate_orbits(ActionSpec(6, ActionKind.SECOND), workers=1)
        labeled = label_orbits(census, predict_second(6))
        by_card = {r.cardinality: r.type_label for r in labeled.records}
        assert by_card[2016] == TYPE4 and by_card[2080] == TYPE5
        assert by_card[1] == TRIVIAL and by_card[4095] == TYPE3

    def test_mismatched_inputs_rejected(self):
        census = enumerate_orbits(ActionSpec(5, ActionKind.FIRST), workers=1)
        with pytest.raises(ValueError):
            label_orbits(census, predict_second(5))

    def test_zero_match_is_reported(self):
        census = enumerate_orbits(ActionSpec(5, ActionKind.SECOND), workers=1)
        pred = predict_second(5)
        wrong = PredictedCensus(5, ActionKind.SECOND,
                                {h: ((STANDARD, 7),) for h in pred.by_height})
        with pytest.raises(LabelingError):
            label_orbits(census, wrong)


def first5_census():
    return enumerate_orbits(ActionSpec(5, ActionKind.FIRST), workers=1)


def without_heights(census):
    return replace(census, records=tuple(replace(r, height=None) for r in census.records))


def without_height_0(pred):
    return replace(pred, by_height={h: rows for h, rows in pred.by_height.items() if h})


@pytest.mark.parametrize("call,error,match", [
    (lambda: epsilon(0), ValueError, "k must be positive, got 0"),
    (lambda: sharp(1), ValueError, r"need n\+1 >= 2, got 1"),
    (lambda: h_bar(5), ValueError, "defined for even n only, got 5"),
    (lambda: predict_second(4), ValueError, r"no closed form below n=5 \(got 4\)"),
    (lambda: predict(5, ActionKind.FIRST_CONJUGATE), ValueError,
     "no closed-form census for first-conj"),
    (lambda: label_orbits(without_heights(first5_census()), predict_first(5)), LabelingError,
     "census records carry no heights"),
    (lambda: label_orbits(first5_census(), without_height_0(predict_first(5))), LabelingError,
     "no predicted stratum at height 00000"),
], ids=["epsilon", "sharp", "h-bar", "predict-second", "predict-kind", "no-heights",
        "missing-height"])
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestPsiSendsOrbitsToSameLabel:
    def test_labels_transported(self, first_over_second):
        n, first, pairs = first_over_second
        labeled_first = label_orbits(first, predict_first(n))
        second_census = enumerate_orbits(ActionSpec(n, ActionKind.SECOND), workers=1)
        labeled_second = label_orbits(second_census, predict_second(n))
        second_labels = {r.representative.bits: r.type_label
                         for r in labeled_second.records}
        for r, (_, rec) in zip(labeled_first.records, pairs, strict=True):
            assert second_labels[rec.representative.bits] == r.type_label


class TestVerify:
    @pytest.mark.parametrize("n,kind", [(5, ActionKind.FIRST), (6, ActionKind.FIRST),
                                        (5, ActionKind.SECOND), (6, ActionKind.SECOND),
                                        (7, ActionKind.SECOND)])
    def test_passes(self, n, kind):
        assert verify(n, kind, workers=1).passed

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 6), (3, 20), (4, 52)])
    def test_observed_mode(self, n, count):
        report = verify(n, ActionKind.FIRST, workers=1)
        assert report.mode == "observed" and report.passed
        assert report.census.orbit_count == count

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 3), (4, 6)])
    def test_observed_mode_second(self, n, count):
        report = verify(n, ActionKind.SECOND, workers=1)
        assert report.mode == "observed" and report.passed
        assert [c.name for c in report.checks] == ["orbit count (exceptional table)"]
        assert report.census.orbit_count == count

    def test_observed_mode_second_can_fail(self, monkeypatch):
        monkeypatch.setattr(classify, "_EXCEPTIONAL_SECOND", {2: 2, 3: 4, 4: 6})
        report = verify(3, ActionKind.SECOND, workers=1)
        assert not report.passed
        assert "expected 4, observed 3" in report.to_text()

    def test_conjugate_mode(self):
        report = verify(4, ActionKind.SECOND_CONJUGATE, workers=1)
        assert report.mode == "conjugate-count" and report.passed

    @pytest.mark.parametrize("kind", list(ActionKind))
    @pytest.mark.parametrize("n", (4, 5))
    def test_one_census_per_verify(self, monkeypatch, n, kind):
        calls = []

        def counting(spec, workers=None):
            calls.append(spec)
            return enumerate_orbits(spec, workers=workers)

        monkeypatch.setattr(classify, "enumerate_orbits", counting)
        assert verify(n, kind, workers=1).passed
        assert calls == [ActionSpec(n, kind)]

    def test_report_serialization(self):
        report = verify(5, ActionKind.FIRST, workers=1)
        assert "PASS" in report.to_text()
        assert '"passed": true' in report.to_json()
