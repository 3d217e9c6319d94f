"""Acceptance gate: one test per headline criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; without -s they appear in the captured output of failing tests.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from aucppv import (
    ClassRatio,
    Scale,
    auc_max_exact,
    auc_max_given_ppvk,
    auc_min_exact,
    auc_min_given_ppvk,
    auc_pairwise,
    auc_trapezoid,
    certify_envelopes,
    decile_report,
    envelope_curve,
    load_csv,
    ppv_base_rate,
    ppv_swap,
    ppvk_max_given_auc,
    ppvk_min_given_auc,
    reverse_classifier,
    roc_curve,
    to_ranking,
)
from aucppv.cli import main as cli_main
from aucppv.data import fixture_path
from conftest import WORKED_EXAMPLE, random_ranking, ranking_from_pattern

GRRS_AUC = 0.6909022561790231
GRRS_PPV = 0.5302674800563116
GRRS_HIGH_RATE = 0.57820608
VRRS_AUC = 0.6760433512
VRRS_PPV = 0.2027649770
VRRS_HIGH_RATE = 0.17760618


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_worked_example_exactness():
    started = time.perf_counter()
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    auc = auc_pairwise(ranking)
    ppv = ppv_base_rate(ranking)
    swapped = ppv_swap(ppv.value, ranking.k1, ranking.k2)
    reversed_ppv = ppv_base_rate(reverse_classifier(ranking))
    elapsed = time.perf_counter() - started
    ok = (
        auc.correct_pairs == 7.0
        and auc.total_pairs == 12
        and auc.value == 7 / 12
        and ppv.hits == 2
        and ppv.value == 2 / 3
        and swapped == 3 / 4
        and reversed_ppv.value == 3 / 4
        and reversed_ppv.k == 4
    )
    report(
        "criterion 1 worked-example exactness",
        ok,
        f"AUC 7/12, PPV_3 2/3, swapped PPV_4 3/4 exact in {elapsed * 1000:.1f} ms",
    )


def test_criterion_2_envelope_tightness_vs_oracle():
    started = time.perf_counter()
    ratios = 0
    arrangements = 0
    failures: list[str] = []
    for n in range(2, 13):
        for k1 in range(1, n):
            ratio = ClassRatio(k1, n - k1)
            try:
                result = certify_envelopes(ratio)
            except Exception as exc:  # noqa: BLE001 - collected for the report
                failures.append(f"{k1}:{n - k1}: {exc}")
                continue
            ratios += 1
            arrangements += result.arrangements
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    detail = (
        f"{ratios} ratios, {arrangements} arrangements certified exactly "
        f"in {elapsed:.2f} s"
    )
    if failures:
        detail = f"mismatches: {failures[:3]}"
    report("criterion 2 envelope tightness vs oracle (n <= 12)", ok, detail)


def test_criterion_3_extreme_gap():
    value = auc_max_given_ppvk(0.0, ClassRatio(1, 4))
    ok = value == 0.75
    report(
        "criterion 3 extreme gap at ratio 1:4",
        ok,
        f"auc_max_given_ppvk(0) = {value!r} (exact 0.75 required)",
    )


def test_criterion_4_symmetric_class_special_case():
    started = time.perf_counter()
    worst = 0.0
    for k1 in range(1, 51):
        curve = envelope_curve(ClassRatio(k1, k1))
        for a, lo, hi in curve.samples:
            worst = max(worst, abs(hi - (2 * a - a * a)), abs(lo - a * a))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12
    report(
        "criterion 4 symmetric classes k1 = k2 <= 50",
        ok,
        f"max |sample - closed form| = {worst:.3e} in {elapsed * 1000:.0f} ms",
    )


def test_criterion_5_fixture_reproduction():
    started = time.perf_counter()
    general = load_csv(fixture_path(Scale.GENERAL), scale=Scale.GENERAL)
    violent = load_csv(fixture_path(Scale.VIOLENT), scale=Scale.VIOLENT)
    checks = []
    for result, auc_want, ppv_want, rate_want in (
        (general, 0.6909022562, 0.5302674801, GRRS_HIGH_RATE),
        (violent, VRRS_AUC, VRRS_PPV, VRRS_HIGH_RATE),
    ):
        ranking = to_ranking(result.rows)
        auc = auc_pairwise(ranking).value
        ppv = ppv_base_rate(ranking).value
        rate = decile_report(result.rows).high.rate
        checks.append(abs(auc - auc_want) <= 1e-6)
        checks.append(abs(ppv - ppv_want) <= 1e-6)
        checks.append(rate is not None and abs(rate - rate_want) <= 1e-6)
    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 5.0
    report(
        "criterion 5 case-study fixtures",
        ok,
        f"general/violent AUC, PPV_k, high-decile rates within 1e-6 in {elapsed:.2f} s",
    )


def test_criterion_6_envelope_interval_reproduction():
    ratio = ClassRatio(4262, 7515)
    low = ppvk_min_given_auc(GRRS_AUC, ratio)
    high = ppvk_max_given_auc(GRRS_AUC, ratio)
    ok = abs(low.value - 0.2616143) <= 1e-4 and abs(high.value - 0.7862506) <= 1e-4
    report(
        "criterion 6 feasible PPV interval at the general-scale operating point",
        ok,
        f"[{low.value:.7f}, {high.value:.7f}] vs [0.2616143, 0.7862506] within 1e-4",
    )


def _draw_size(rng: random.Random, i: int) -> int:
    """Random size in 2..5000, log-weighted toward the small sizes.

    Off-by-one bugs live at small n, so most draws land there; every
    fifth draw is uniform and the first draw pins the 5000 extreme.
    """
    if i == 0:
        return 5000
    if i % 5 == 0:
        return rng.randint(2, 5000)
    return min(5000, round(2.0 * 2500.0 ** rng.random()))


def test_criterion_7_property_suites():
    started = time.perf_counter()
    failures: list[str] = []

    # (a) trapezoid route equals pairwise route, ties included.
    rng = random.Random(101)
    for i in range(1000):
        n = _draw_size(rng, i)
        ranking = random_ranking(rng, n, with_ties=bool(i % 2))
        trap = auc_trapezoid(roc_curve(ranking))
        pair = auc_pairwise(ranking).value
        if trap != pair:
            failures.append(f"(a) run {i}: trapezoid {trap!r} != pairwise {pair!r}")
            break
    time_a = time.perf_counter()

    # (b) class-swap AUC invariance, exact.
    rng = random.Random(103)
    for i in range(1000):
        n = _draw_size(rng, i)
        ranking = random_ranking(rng, n, with_ties=bool(i % 2))
        if auc_pairwise(reverse_classifier(ranking)).value != auc_pairwise(ranking).value:
            failures.append(f"(b) run {i}: swap changed the AUC")
            break
    time_b = time.perf_counter()

    # (c) ppv_swap roundtrip, exact.
    rng = random.Random(107)
    for i in range(1000):
        n = _draw_size(rng, i)
        ranking = random_ranking(rng, n, with_ties=bool(i % 2))
        translated = ppv_swap(ppv_base_rate(ranking).value, ranking.k1, ranking.k2)
        if translated != ppv_base_rate(reverse_classifier(ranking)).value:
            failures.append(f"(c) run {i}: roundtrip mismatch")
            break
    time_c = time.perf_counter()

    # (d) envelope sandwich, distinct scores (the hit count at a tied
    # boundary is a tie-policy artifact; the expected-hits mode covers ties).
    rng = random.Random(109)
    for i in range(1000):
        n = _draw_size(rng, i)
        ranking = random_ranking(rng, n, with_ties=False)
        ratio = ClassRatio(ranking.k1, ranking.k2)
        ppv = ppv_base_rate(ranking)
        auc = auc_pairwise(ranking)
        exact = Fraction(auc.doubled_u, 2 * auc.total_pairs)
        lo = auc_min_exact(ppv.hits, ratio)
        hi = auc_max_exact(ppv.hits, ratio)
        if not lo <= exact <= hi:
            failures.append(f"(d) run {i}: {exact} outside [{lo}, {hi}]")
            break
        lo_float = auc_min_given_ppvk(ppv.value, ratio)
        hi_float = auc_max_given_ppvk(ppv.value, ratio)
        if not lo_float <= auc.value <= hi_float:
            failures.append(f"(d) run {i}: {auc.value} outside [{lo_float}, {hi_float}]")
            break
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    detail = (
        "4 x 1000 rankings (n <= 5000): "
        f"a={time_a - started:.1f}s b={time_b - time_a:.1f}s "
        f"c={time_c - time_b:.1f}s d={elapsed - (time_c - started):.1f}s, "
        f"total {elapsed:.1f}s"
    )
    if failures:
        detail = "; ".join(failures)
    report("criterion 7 property suites", ok, detail)


def test_criterion_8_verify_exits_zero(tmp_path):
    out_path = tmp_path / "verify.txt"
    started = time.perf_counter()
    code = cli_main(["verify", "--limit", "12", "--output", str(out_path)])
    elapsed = time.perf_counter() - started
    tail = out_path.read_text(encoding="utf-8").splitlines()[-1]
    ok = code == 0 and tail.endswith("all exact")
    report(
        "criterion 8 verify --limit 12",
        ok,
        f"exit code {code}, {tail!r} in {elapsed:.2f} s",
    )
