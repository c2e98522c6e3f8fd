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
        ("SAT", None, (26, 5, 24), "e771d053af5b5a58099ed109b219a1ec1dd347f7af6613ba6339816fa8d4c352"),
        ("SAT", None, (26, 5, 24), "e771d053af5b5a58099ed109b219a1ec1dd347f7af6613ba6339816fa8d4c352"),
        ("COVERING", (1, 2), (23, 5, 21), "6b0524f16e6af4747d68975f0c3ab46843d330f2d8274910b7c1479f70e1f4be"),
    ),
    "E2": (
        ("UNSAT", ("non-removable-useless-vertex", 1), (21, 0, 18), "9a3e78dbd36a3fd8df9d28e2b7756ead1458cf00e41c4304d4c89d98e5909782"),
        ("UNSAT", ("both-components-single", 1), (6, 0, 6), "834fa167cd3e78e20fb428a2377a1b1ac67a7b8524152e0f1f53191a7d89c950"),
        ("NO_COVERING", ("non-removable-useless-vertex", 1), (19, 0, 16), "64bccd6953ef83dc05600bd82dfeda0d318e2527e17fdcbe5535e856ab53c17c"),
    ),
    "E3": (
        ("UNSAT", ("unreachable-column", 1), (38, 4, 36), "f4c106c0718287044a510a6faf2cf21c95c4c7460eb8ed78d7e1f3254ad04209"),
        ("UNSAT", ("unreachable-column", 1), (38, 4, 36), "f4c106c0718287044a510a6faf2cf21c95c4c7460eb8ed78d7e1f3254ad04209"),
        ("NO_COVERING", ("unreachable-column", 1), (34, 4, 32), "2623265254a226aaff6b333c91bfedc52cf22ecf8092ca70bbad84b8838801b2"),
    ),
    "E4": (
        ("SAT", None, (49, 10, 57), "b580e56696dd54ed0fb28484e2ce1f5c3f5fc9a2d49dfa449647a07827f55144"),
        ("SAT", None, (49, 10, 57), "b580e56696dd54ed0fb28484e2ce1f5c3f5fc9a2d49dfa449647a07827f55144"),
        ("COVERING", (1, 2, 3), (44, 10, 52), "596c74cd6ad3e97d326f4dcc72b7c97aa3d9cd88acfd8e1f79a508638606c9a2"),
    ),
    "E5": (
        ("SAT", None, (35, 9, 32), "4b007220edf0140c4ff4f4c1a594a3a7472ccb8f237a0ea1c3d881aa8d014254"),
        ("SAT", None, (35, 9, 32), "4b007220edf0140c4ff4f4c1a594a3a7472ccb8f237a0ea1c3d881aa8d014254"),
        ("COVERING", (1, 2, 3), (30, 9, 27), "3a0cac77d354395cb48f736525c1b5f2af1fb6537c77e6108720079271108e71"),
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
    (60, 601, "none"): ("UNSAT", ("unreachable-column", 217), (3411, 1980, 3494), "190342bea87aaf95e806aeffb52801129bf2337d17e42ba4b45b26a64db42ae3"),
    (90, 602, "none"): ("UNSAT", ("unreachable-column", 7), (4703, 2360, 4619), "cf8588dffb14b29794bd1132f75464553477e89c59c4e8d07c04c17077ae556d"),
    (120, 603, "none"): ("UNSAT", ("unreachable-column", 212), (6303, 3427, 6346), "9ed9b70846a8a0bfa0027930a722f98099c175261304ab612f57630b7606f814"),
    (150, 604, "none"): ("UNSAT", ("unreachable-column", 136), (7583, 3768, 7454), "286da4b019e0dd12db040a098a28daab363d246807c47a44589bade7a849cde6"),
    (60, 605, "planted"): ("UNSAT", ("unreachable-column", 83), (2987, 1469, 2942), "da84e0fd7a399824b266d03abef4a56614c6f1611dccacd07cc95d69194c9465"),
    (100, 606, "planted"): ("UNSAT", ("unreachable-column", 195), (5210, 3001, 5310), "03028bfcd65455adcc62827f308df1d7cfdb4a5f81e7eb63304e946eeb449296"),
    (150, 607, "planted"): ("UNSAT", ("unreachable-column", 211), (7728, 4082, 7751), "89ba1745c9f1a4b7534b526b57768d5936182c6ad6f3c4fc95a7e414fdfb0bb9"),
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
    ("UNSAT", ("unreachable-column", 1638), (101644, 52782, 100857), "a07a533271c6ce87651faa17ce98c7a4158b2a4c3f1ac7588d44a1a04d576af4"),
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
RANDOM_DIGEST = "c880b3c97de55e7f13c53f5c11301564da90d001893e1430a11a7b892ac4aa69"
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
