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
        ("SAT", None, (26, 2, 24), "446dbfcfca7672c4e5015d2c30bc6999864a4a60fac44a59b366ad8d9fe50adb"),
        ("SAT", None, (26, 2, 24), "446dbfcfca7672c4e5015d2c30bc6999864a4a60fac44a59b366ad8d9fe50adb"),
        ("COVERING", (1, 2), (23, 2, 21), "77d587f27cb8b09112db02dcb9595071631ccb6f33346503f504688543dc7e91"),
    ),
    "E2": (
        ("UNSAT", ("non-removable-useless-vertex", 1), (21, 0, 18), "9a3e78dbd36a3fd8df9d28e2b7756ead1458cf00e41c4304d4c89d98e5909782"),
        ("UNSAT", ("both-components-single", 1), (6, 0, 6), "834fa167cd3e78e20fb428a2377a1b1ac67a7b8524152e0f1f53191a7d89c950"),
        ("NO_COVERING", ("non-removable-useless-vertex", 1), (19, 0, 16), "64bccd6953ef83dc05600bd82dfeda0d318e2527e17fdcbe5535e856ab53c17c"),
    ),
    "E3": (
        ("UNSAT", ("unreachable-column", 1), (38, 0, 36), "610943bb75a7588239f60ccec8367f2fcadeb1714e72604e6aab4654b11c08bf"),
        ("UNSAT", ("unreachable-column", 1), (38, 0, 36), "610943bb75a7588239f60ccec8367f2fcadeb1714e72604e6aab4654b11c08bf"),
        ("NO_COVERING", ("unreachable-column", 1), (34, 0, 32), "03e74bf4630799867a22834791d84850f1cd98cccebf90d7b7883cd228972ff0"),
    ),
    "E4": (
        ("SAT", None, (49, 2, 57), "d14ffd9a07ac779e2dbd0887e81c27c6279158650aa9c0f18b8eb7ce9f8976e2"),
        ("SAT", None, (49, 2, 57), "d14ffd9a07ac779e2dbd0887e81c27c6279158650aa9c0f18b8eb7ce9f8976e2"),
        ("COVERING", (1, 2, 3), (44, 2, 52), "efe3049e7e4c9e7791088cdbd2e93aed0531a19e2e775db1987d8e2451039bcc"),
    ),
    "E5": (
        ("SAT", None, (35, 4, 32), "732e28017a886a2cc18e79e4445042e6b140094c478b1f41b4cc8073483546f8"),
        ("SAT", None, (35, 4, 32), "732e28017a886a2cc18e79e4445042e6b140094c478b1f41b4cc8073483546f8"),
        ("COVERING", (1, 2, 3), (30, 4, 27), "c6781423cf23fd348fd786fbe194dc7422d336f9119c45b92692750bd46141fd"),
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
    (60, 601, "none"): ("UNSAT", ("unreachable-column", 217), (3411, 1212, 3494), "371465af080b8af14519565115dc01864591273cd74426f84a3644f591f18c91"),
    (90, 602, "none"): ("UNSAT", ("unreachable-column", 7), (4703, 1223, 4619), "7180179e9cc570696e12467b2b48325c9dd74c682d463e9ade9b679fd55bff2f"),
    (120, 603, "none"): ("UNSAT", ("unreachable-column", 212), (6303, 1894, 6346), "313402474b514c0348a3892abeefb7f66915627ba0c55709e3285b0e2d26f163"),
    (150, 604, "none"): ("UNSAT", ("unreachable-column", 136), (7583, 1851, 7454), "41e148aede7d50f4afa0f0a2bafd6bf65ff2c056152343e32ebfd2f9d2d6e54d"),
    (60, 605, "planted"): ("UNSAT", ("unreachable-column", 83), (2987, 701, 2942), "aed0ed1673f082660a3ee556bf1d5761142cd608f3dc8b566072e1a15c8358a7"),
    (100, 606, "planted"): ("UNSAT", ("unreachable-column", 195), (5210, 1765, 5310), "4faae4487c53b6a02e725de4da036975c7df1f2c635624d8018042d0b19360b8"),
    (150, 607, "planted"): ("UNSAT", ("unreachable-column", 211), (7728, 2165, 7751), "d373be423aa6a7fdb93562c33989c7522c42fea829ecf11d70de97512bf87d3b"),
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
    ("UNSAT", ("unreachable-column", 1638), (101644, 27456, 100857), "ddeb908de8b7c16fdfdfe8acf5812f00ef02f8e437c701ebb8e427745c73fd65"),
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
RANDOM_DIGEST = "3a5d66771aa92e1a2304a8580f9339e8f37545ee995cbe30bd79a5d3594ffe57"
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
