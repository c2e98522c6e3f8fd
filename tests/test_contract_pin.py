"""Pinned behaviour contract: verdicts, reasons and traces, twice over.

The ``*_BEHAVIOUR`` pins hold what the engine decides: the verdict, the
reason (or swap set) and the sha256 of the trace events without counter
readings.  No change to the engine may move them.

The ``*_PINS`` pins add the op counts by kind and the trace hash with
counter readings.  They may move only in a change that says so, lists the
moved values and republishes the probe numbers; the behaviour pins of the
same inputs must then hold unedited.  The benchmark's reference compares
trace digests without counter readings, so these are the check that
catches a moved op charge.
"""
import hashlib
import json

import pytest

from satcover import (
    CoveringFound,
    DecompositionPair,
    NoCovering,
    Sat,
    Unsat,
    solve_covering,
    solve_sat,
)
from satcover.harness import FuzzConfig, random_cnf

from conftest import E1_TEXT, E2_TEXT, E3_TEXT, E4_TEXT, E5_TEXT, formula_of, pair_of


def outcome(run) -> tuple:
    """(verdict, reason or swap set)."""
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
    return status, reason


def pin(run) -> tuple:
    """(verdict, reason or swap set, (assignments, arithmetic, comparisons),
    trace hash with counter readings)."""
    ops = run.ops
    return (
        *outcome(run), (ops.assignments, ops.arithmetic, ops.comparisons), run.trace.sha256()
    )


def behaviour(run) -> tuple:
    """(verdict, reason or swap set, sha256 of the trace events without
    counter readings)."""
    events = json.dumps(run.trace.events_without_readings(), separators=(",", ":"))
    return (*outcome(run), hashlib.sha256(events.encode("ascii")).hexdigest())


def digest(pins) -> str:
    text = json.dumps(pins, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


WORKED = {"E1": E1_TEXT, "E2": E2_TEXT, "E3": E3_TEXT, "E4": E4_TEXT, "E5": E5_TEXT}

# per example: solve_sat, solve_sat with the shortcut, and solve_covering on
# the pair rebuilt through the public dense constructor
WORKED_PINS = {
    "E1": (
        ("SAT", None, (22, 2, 22), "c3e61c72eeca4a8c368b7f5a4e6bcaa3c7e3823af8dde795b595f306556c3234"),
        ("SAT", None, (22, 2, 22), "c3e61c72eeca4a8c368b7f5a4e6bcaa3c7e3823af8dde795b595f306556c3234"),
        ("COVERING", (1, 2), (19, 2, 19), "f3bf3fb343a9b7675a02e716847a2ae793c9d545b613762aacbdbc63fa2daf98"),
    ),
    "E2": (
        ("UNSAT", ("non-removable-useless-vertex", 1), (19, 0, 17), "b803fcae97b9a160d8d7169ddb2c009ef6f6109748e9268d82980f6db8ed3154"),
        ("UNSAT", ("both-components-single", 1), (6, 0, 6), "834fa167cd3e78e20fb428a2377a1b1ac67a7b8524152e0f1f53191a7d89c950"),
        ("NO_COVERING", ("non-removable-useless-vertex", 1), (17, 0, 15), "29a627fdd226745d0718cad0d74f892abef9f3922bc1ea63c608a30c0afe12ad"),
    ),
    "E3": (
        ("UNSAT", ("unreachable-column", 1), (35, 0, 34), "939e7fb2531c7ea584b58835f5580cfb62900f2d7ca3c02d8e3131ef787f9cbe"),
        ("UNSAT", ("unreachable-column", 1), (35, 0, 34), "939e7fb2531c7ea584b58835f5580cfb62900f2d7ca3c02d8e3131ef787f9cbe"),
        ("NO_COVERING", ("unreachable-column", 1), (31, 0, 30), "c6c54942c07facdf04458e51d6718530be6fc55a897ef787c33522373c3541c2"),
    ),
    "E4": (
        ("SAT", None, (45, 2, 50), "b31efeae624fbf2041482894bfe6c93f23f010414d85446bdef7465df23f9aaa"),
        ("SAT", None, (45, 2, 50), "b31efeae624fbf2041482894bfe6c93f23f010414d85446bdef7465df23f9aaa"),
        ("COVERING", (1, 2, 3), (40, 2, 45), "127795f7433057270bc21d8deef656b2f81ba871ab8e0eec7f92d2aa20bd0704"),
    ),
    "E5": (
        ("SAT", None, (29, 4, 29), "63c566348af111b3d1972aa90092e79f5b6d02890c7c35c71ebd2a6c42ef5fa2"),
        ("SAT", None, (29, 4, 29), "63c566348af111b3d1972aa90092e79f5b6d02890c7c35c71ebd2a6c42ef5fa2"),
        ("COVERING", (1, 2, 3), (24, 4, 24), "279e55328770a1a583ff546325595fc89006ef87de5b5c819d156d56ab1999f9"),
    ),
}

WORKED_BEHAVIOUR = {
    "E1": (
        ("SAT", None, "6b9f5065ad8b8bc79af1931fdc583bcf393223b707f2e0840a747c7e9a9da6da"),
        ("SAT", None, "6b9f5065ad8b8bc79af1931fdc583bcf393223b707f2e0840a747c7e9a9da6da"),
        ("COVERING", (1, 2), "6b9f5065ad8b8bc79af1931fdc583bcf393223b707f2e0840a747c7e9a9da6da"),
    ),
    "E2": (
        ("UNSAT", ("non-removable-useless-vertex", 1), "05b739d9aa78cf1211aae700ed1a7beb8848a6ae68c4075547400fcbbbdbe0c4"),
        ("UNSAT", ("both-components-single", 1), "6ddc6be57b890404b87eb283b394d5c473d7b3e9f5c7b1e84364cce7884a4985"),
        ("NO_COVERING", ("non-removable-useless-vertex", 1), "05b739d9aa78cf1211aae700ed1a7beb8848a6ae68c4075547400fcbbbdbe0c4"),
    ),
    "E3": (
        ("UNSAT", ("unreachable-column", 1), "fb0cf4d5223db77eaebd16d30362e9e2f4152c884b0039b282a5894724eab045"),
        ("UNSAT", ("unreachable-column", 1), "fb0cf4d5223db77eaebd16d30362e9e2f4152c884b0039b282a5894724eab045"),
        ("NO_COVERING", ("unreachable-column", 1), "fb0cf4d5223db77eaebd16d30362e9e2f4152c884b0039b282a5894724eab045"),
    ),
    "E4": (
        ("SAT", None, "47f76d52bfcbdea55d785913a7a9ce24622c127942799d41793279b4e2ca89a4"),
        ("SAT", None, "47f76d52bfcbdea55d785913a7a9ce24622c127942799d41793279b4e2ca89a4"),
        ("COVERING", (1, 2, 3), "47f76d52bfcbdea55d785913a7a9ce24622c127942799d41793279b4e2ca89a4"),
    ),
    "E5": (
        ("SAT", None, "6ce9548b244168bba524a6aa4fe297fbff465b1c3fb19d8f7db58c2e14e4eaa8"),
        ("SAT", None, "6ce9548b244168bba524a6aa4fe297fbff465b1c3fb19d8f7db58c2e14e4eaa8"),
        ("COVERING", (1, 2, 3), "6ce9548b244168bba524a6aa4fe297fbff465b1c3fb19d8f7db58c2e14e4eaa8"),
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
    (60, 601, "none"): ("UNSAT", ("unreachable-column", 217), (3111, 1212, 3434), "abc40ab55f1da0100b548ca87554e265ed99fb93bd94e7064ab3a3ae96ef09e8"),
    (90, 602, "none"): ("UNSAT", ("unreachable-column", 7), (4260, 1223, 4530), "e5c96bfacf19e035404851d5cb443d50e069822dbc90656346d99a8b6497203e"),
    (120, 603, "none"): ("UNSAT", ("unreachable-column", 212), (5707, 1894, 6226), "b8e7c5ce36c6bbc0d0263ad2824f0dc8d24490827443a9a2f178b12b8c3eb17a"),
    (150, 604, "none"): ("UNSAT", ("unreachable-column", 136), (6817, 1851, 7304), "8e4759168e2e13efb6da8fcab7f66c3d8e09afba3ff0a9848e51c9c32b535b19"),
    (60, 605, "planted"): ("UNSAT", ("unreachable-column", 83), (2689, 701, 2882), "a1699f9d23b37a9f40c1c46388baccc510da661d9f3d92ca18394f7224995be4"),
    (100, 606, "planted"): ("UNSAT", ("unreachable-column", 195), (4713, 1765, 5212), "13c1918e5edba9338e2afb9eebef17b4d33e8fe419f727ac9f545c2b0c9fa395"),
    (150, 607, "planted"): ("UNSAT", ("unreachable-column", 211), (6994, 2165, 7601), "cede1c02ac73b388541a26b47e536201a077c3067860f7e5ced4752e832b65a7"),
}

THRESHOLD_BEHAVIOUR = {
    (60, 601, "none"): ("UNSAT", ("unreachable-column", 217), "62a896d57d067c5cf789813b7085ab70e224dd6e0e3ce4970ef284c23adccf2f"),
    (90, 602, "none"): ("UNSAT", ("unreachable-column", 7), "fc5ddf36e94a243cbc57db0a867b1396c3c93b58bbefe042deaf79ec602c772b"),
    (120, 603, "none"): ("UNSAT", ("unreachable-column", 212), "7f9f1489d425f4bde87965c1f3a0b651ecf68447c224da73baf644b199480907"),
    (150, 604, "none"): ("UNSAT", ("unreachable-column", 136), "3cc7d480557ed35ae613c4a062f6a71ef3c3614bd83b3c46d077ccf9a921bfdf"),
    (60, 605, "planted"): ("UNSAT", ("unreachable-column", 83), "f9187643a719b8d4142c054c78a40e90ca6548b4ade9d4b42f589768e48e44a8"),
    (100, 606, "planted"): ("UNSAT", ("unreachable-column", 195), "3de51cb3c7103c5d7131a1cecb133c061fbe70817969ffbcfc9c1e65c16b8fcd"),
    (150, 607, "planted"): ("UNSAT", ("unreachable-column", 211), "53269513eae08daeb3955d4cccaf0a3f9fa97e9c47dd406cea3aef49ce3c2d27"),
}

# n = 2,000 at the threshold ratio: 366 committed eliminations, enough that
# the zero-column heap of ``eliminate_incompatibilities`` holds stale and
# duplicate entries when it is popped
HEAP_PIN = (
    (2000, 608, "none"),
    ("UNSAT", ("unreachable-column", 1638), (91697, 27456, 98872), "fa7cc2e683b9f0d020dabc66e918bc90acd7cd6fdcce0bccff6d04a0971c872d"),
)

HEAP_BEHAVIOUR = ("UNSAT", ("unreachable-column", 1638), "04a850ea51c531438b99ea03d2d4028259da8e5054c56b107273653851a9fc7c")

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
RANDOM_DIGEST = "2b27220a7a5ef7fba23cea168319a35a7938f450eef99c12c66ed5b6ab16fae0"
RANDOM_BEHAVIOUR_DIGEST = "53a8cd3de0bbec44960588b858bfa2c188b759587e26a2295f575ebb0c3d5cab"


def random_batch_runs():
    """Every instance with invariant checks; the orientation alternates and
    every third instance takes the forced-conflict shortcut."""
    for cfg in RANDOM_BATCHES:
        for i in range(cfg.num_instances):
            yield solve_sat(
                random_cnf(cfg, i),
                count_ops=True,
                invariant_checks=True,
                alpha="pos" if i % 2 else "neg",
                shortcut=i % 3 == 0,
            )


def worked_runs(name: str) -> tuple:
    text = WORKED[name]
    dense = pair_of(text)
    rebuilt = DecompositionPair(
        dense.n, dense.m, [list(r) for r in dense.alpha_rows], [list(r) for r in dense.bar_rows]
    )
    return (
        solve_sat(formula_of(text), count_ops=True, invariant_checks=True),
        solve_sat(formula_of(text), count_ops=True, shortcut=True),
        solve_covering(rebuilt, count_ops=True),
    )


@pytest.mark.parametrize("name", sorted(WORKED))
def test_worked_examples(name):
    runs = worked_runs(name)
    assert tuple(map(behaviour, runs)) == WORKED_BEHAVIOUR[name]
    assert tuple(map(pin, runs)) == WORKED_PINS[name]


@pytest.mark.parametrize("n,seed,bias", sorted(THRESHOLD_PINS))
def test_threshold_ratio(n, seed, bias):
    run = solve_sat(threshold_formula(n, seed, bias), count_ops=True)
    assert behaviour(run) == THRESHOLD_BEHAVIOUR[(n, seed, bias)]
    assert pin(run) == THRESHOLD_PINS[(n, seed, bias)]


def test_threshold_heap_path():
    (n, seed, bias), expected = HEAP_PIN
    run = solve_sat(threshold_formula(n, seed, bias), count_ops=True)
    assert run.trace.kinds().count("incompat-eliminated") >= 100
    assert behaviour(run) == HEAP_BEHAVIOUR
    assert pin(run) == expected


def test_random_batch_with_invariant_checks():
    runs = list(random_batch_runs())
    tally = {}
    for run in runs:
        status = outcome(run)[0]
        tally[status] = tally.get(status, 0) + 1
    assert tally == RANDOM_TALLY
    assert digest(list(map(behaviour, runs))) == RANDOM_BEHAVIOUR_DIGEST
    assert digest(list(map(pin, runs))) == RANDOM_DIGEST
