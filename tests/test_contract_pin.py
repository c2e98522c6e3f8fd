"""Pinned behaviour contract: trace hashes with op-counter readings, op counts
by kind, verdicts and reasons.

The values were recorded on the dense-array engine, before the pair moved to
occurrence lists and the pointing graph to column-indexed state.  They may
move only in a change that says so and republishes the probe numbers.  The
benchmark's reference compares trace digests without counter readings, so
this is the check that catches a moved op charge.
"""
import hashlib
import json

import pytest

from satcover import (
    CoveringFound,
    DecompositionPair,
    FuzzConfig,
    NoCovering,
    Sat,
    Unsat,
    random_cnf,
    solve_covering,
    solve_sat,
)

from conftest import E1_TEXT, E2_TEXT, E3_TEXT, E4_TEXT, E5_TEXT, formula_of, pair_of


def pin(run) -> tuple:
    """(verdict, reason or swap set, (assignments, arithmetic, comparisons),
    trace hash with counter readings)."""
    verdict = run.verdict
    if isinstance(verdict, Sat):
        status, reason = "SAT", None
    elif isinstance(verdict, Unsat):
        status, reason = "UNSAT", (verdict.reason.kind, verdict.reason.index)
    elif isinstance(verdict, NoCovering):
        status, reason = "NO_COVERING", (verdict.reason.kind, verdict.reason.index)
    elif isinstance(verdict, CoveringFound):
        status, reason = "COVERING", tuple(sorted(verdict.swaps))
    else:
        status, reason = "ERROR", verdict.detail
    ops = run.ops
    return status, reason, (ops.assignments, ops.arithmetic, ops.comparisons), run.trace.sha256()


def digest(pins) -> str:
    text = json.dumps(pins, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


WORKED = {"E1": E1_TEXT, "E2": E2_TEXT, "E3": E3_TEXT, "E4": E4_TEXT, "E5": E5_TEXT}

# per example: solve_sat, solve_sat with the shortcut, and solve_covering on
# the pair rebuilt through the public dense constructor
WORKED_PINS = {
    "E1": (
        ("SAT", None, (22, 8, 28), "610d26a72a46a124853d35cf01b9dceced1dc1487158b21cdcd518bde30ee2ee"),
        ("SAT", None, (22, 8, 28), "610d26a72a46a124853d35cf01b9dceced1dc1487158b21cdcd518bde30ee2ee"),
        ("COVERING", (1, 2), (14, 8, 24), "5233398cb4f64b9d657a0255111ffdd91b4886f2af1a30c521880769e877dde8"),
    ),
    "E2": (
        ("UNSAT", ("non-removable-useless-vertex", 1), (48, 3, 16), "9a0c85ff09c9ba8bb4b8a8ebdfcbbbf1774246f75557b8e8b0387ba347bffd54"),
        ("UNSAT", ("both-components-single", 1), (8, 2, 6), "7fe8eb60ebc3ce82a429d407389c96cdf419ee74c97fc9f843ae23e4b4cc6419"),
        ("NO_COVERING", ("non-removable-useless-vertex", 1), (44, 3, 14), "3969b5610c88579dd339f0cc08b9eee226fa4033f38bd541bd51a037f58836b5"),
    ),
    "E3": (
        ("UNSAT", ("unreachable-column", 1), (147, 9, 46), "f4cf0b21e7de8aa4067a87c6bf517512ccccfe2aa26bf0da8a4e18999b4d7587"),
        ("UNSAT", ("unreachable-column", 1), (147, 9, 46), "f4cf0b21e7de8aa4067a87c6bf517512ccccfe2aa26bf0da8a4e18999b4d7587"),
        ("NO_COVERING", ("unreachable-column", 1), (135, 9, 40), "f08f323f538847e4840d52d7584e40d9dd056aa7c47b033d80cb43e894cc7b04"),
    ),
    "E4": (
        ("SAT", None, (215, 14, 69), "91fcaaebc1f2fe659222125ec56a5e8317aee5b6946abffc2f28090460c0b264"),
        ("SAT", None, (215, 14, 69), "91fcaaebc1f2fe659222125ec56a5e8317aee5b6946abffc2f28090460c0b264"),
        ("COVERING", (1, 2, 3), (197, 14, 60), "af70513cf9b1d1241cda9a4316ed6e8dc92d6f87021d1c14728a2697adbe4d03"),
    ),
    "E5": (
        ("SAT", None, (33, 15, 40), "ecc0201738777e02794dca278950712e7e1019b3cbd0fac29ff68bb266fe220d"),
        ("SAT", None, (33, 15, 40), "ecc0201738777e02794dca278950712e7e1019b3cbd0fac29ff68bb266fe220d"),
        ("COVERING", (1, 2, 3), (21, 15, 34), "831a300d293ec269e7d59cdb04736b09cf7da417cfd2cf764d5a1cb9062bc2d5"),
    ),
}


def threshold_formula(n: int, seed: int, bias: str):
    m = round(4.26 * n)
    cfg = FuzzConfig(
        seed=seed,
        num_instances=1,
        var_range=(n, n),
        clause_range=(m, m),
        width_range=(3, 3),
        satisfiable_bias=bias,
    )
    return random_cnf(cfg, 0)


THRESHOLD_PINS = {
    (60, 601, "none"): ("UNSAT", ("unreachable-column", 217), (1191989, 8281, 90867), "101e7211d9097c45a7eae2681dd37a316b60d41955ccfe9d409802fbf7bd0dce"),
    (90, 602, "none"): ("UNSAT", ("unreachable-column", 7), (1636517, 9019, 177878), "849bf1bfacd7a8f08d23326f73491bf5016db63d2e93a03063e05a86a33b5567"),
    (120, 603, "none"): ("UNSAT", ("unreachable-column", 212), (4980515, 18254, 328315), "358d591dba70358c7acb846eb4e3e1f3be4d13a4c25ac9c5fd01faa42c68a547"),
    (150, 604, "none"): ("UNSAT", ("unreachable-column", 136), (6035318, 19404, 481641), "de4d1f472530835682459eea64b605da46787bea9c82806bb3d4fff7a23d24c7"),
    (60, 605, "planted"): ("UNSAT", ("unreachable-column", 83), (629311, 5169, 78345), "8c31bb95a6fbc88ec42bf5a4ce83140191a0944db18427365adced41a6e1a272"),
    (100, 606, "planted"): ("UNSAT", ("unreachable-column", 195), (3272954, 15215, 228961), "f3b9ea4e67da336de0a05c99e0beb7d05cec0f6619a3f4844a9d1d4ee4ced02a"),
    (150, 607, "planted"): ("UNSAT", ("unreachable-column", 211), (8632141, 25272, 502241), "5d3ebaf762c214bc5a91f9354eb24a0952215a76711ac4be7c7a2999217136ba"),
}

# n = 2,000 at the threshold ratio: 366 committed eliminations, enough that
# the zero-column heap of ``eliminate_incompatibilities`` holds stale and
# duplicate entries when it is popped
HEAP_PIN = (
    (2000, 608, "none"),
    ("UNSAT", ("unreachable-column", 1638), (15010426332, 3181765, 86284662), "404b1d89440c74edf3eb6c13d717de06ef2fe83c76c7b4122b1e129be4846998"),
)

RANDOM_BATCHES = tuple(
    FuzzConfig(
        seed=seed,
        num_instances=120,
        var_range=(1, 30),
        clause_range=(1, 120),
        width_range=(1, 3),
        satisfiable_bias=bias,
    )
    for seed, bias in ((20261018, "none"), (20261019, "planted"))
)
RANDOM_TALLY = {"UNSAT": 109, "SAT": 131}
RANDOM_DIGEST = "8feb364800944c7e7f46433c0b1251557f2535c7288c5ea1b6f82a286d41f0bd"


def random_batch_pins():
    """Every instance with invariant checks; the orientation alternates and
    every third instance takes the forced-conflict shortcut."""
    pins = []
    for cfg in RANDOM_BATCHES:
        for i in range(cfg.num_instances):
            run = solve_sat(
                random_cnf(cfg, i),
                count_ops=True,
                invariant_checks=True,
                alpha="pos" if i % 2 else "neg",
                shortcut=i % 3 == 0,
            )
            pins.append(pin(run))
    return pins


@pytest.mark.parametrize("name", sorted(WORKED))
def test_worked_examples(name):
    text = WORKED[name]
    dense = pair_of(text)
    rebuilt = DecompositionPair(
        dense.n, dense.m, [list(r) for r in dense.alpha_rows], [list(r) for r in dense.bar_rows]
    )
    got = (
        pin(solve_sat(formula_of(text), count_ops=True)),
        pin(solve_sat(formula_of(text), count_ops=True, shortcut=True)),
        pin(solve_covering(rebuilt, count_ops=True, invariant_checks=True)),
    )
    assert got == WORKED_PINS[name]


@pytest.mark.parametrize("n,seed,bias", sorted(THRESHOLD_PINS))
def test_threshold_ratio(n, seed, bias):
    run = solve_sat(threshold_formula(n, seed, bias), count_ops=True)
    assert pin(run) == THRESHOLD_PINS[(n, seed, bias)]


def test_threshold_heap_path():
    (n, seed, bias), expected = HEAP_PIN
    run = solve_sat(threshold_formula(n, seed, bias), count_ops=True)
    assert run.trace.kinds().count("incompat-eliminated") >= 100
    assert pin(run) == expected


def test_random_batch_with_invariant_checks():
    pins = random_batch_pins()
    tally = {}
    for p in pins:
        tally[p[0]] = tally.get(p[0], 0) + 1
    assert tally == RANDOM_TALLY
    assert digest(pins) == RANDOM_DIGEST
