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
        ("SAT", None, (22, 2, 24), "31119211f246cf8d7272d5257e0ba30a19eb1f8159224c110ed4cfbbf34d441b"),
        ("SAT", None, (22, 2, 24), "31119211f246cf8d7272d5257e0ba30a19eb1f8159224c110ed4cfbbf34d441b"),
        ("COVERING", (1, 2), (19, 2, 21), "647e700a3783b1faed70585ca75e48f4d6ed8741d8a925cb82713ac6b537c0b0"),
    ),
    "E2": (
        ("UNSAT", ("non-removable-useless-vertex", 1), (19, 0, 18), "d36bc8bf0f9241c2185ec9d09c4c078fa1243008f2f7f330a773ab6efd0aa7e9"),
        ("UNSAT", ("both-components-single", 1), (6, 0, 6), "834fa167cd3e78e20fb428a2377a1b1ac67a7b8524152e0f1f53191a7d89c950"),
        ("NO_COVERING", ("non-removable-useless-vertex", 1), (17, 0, 16), "9b324b7da286ee0a196c3cc246723f5c4a691b69696aa8319437739ffc8ec8d3"),
    ),
    "E3": (
        ("UNSAT", ("unreachable-column", 1), (35, 0, 36), "f97ed637a81417cc9bef3aaa00dbd6d02536b8db734cfc68c92641c30ef0ea9a"),
        ("UNSAT", ("unreachable-column", 1), (35, 0, 36), "f97ed637a81417cc9bef3aaa00dbd6d02536b8db734cfc68c92641c30ef0ea9a"),
        ("NO_COVERING", ("unreachable-column", 1), (31, 0, 32), "59f6fa0fa3090321710eab19e7f715de3c9f1e52bed0e42f773be2108b5d0f52"),
    ),
    "E4": (
        ("SAT", None, (45, 2, 55), "21824e0485ea95540ad14f13151718406401098d99434c4bf286947c661182f8"),
        ("SAT", None, (45, 2, 55), "21824e0485ea95540ad14f13151718406401098d99434c4bf286947c661182f8"),
        ("COVERING", (1, 2, 3), (40, 2, 50), "1906f41f79deb59b4d756e36a32ceb6c5216bbc19d36e98b3697581a672bb165"),
    ),
    "E5": (
        ("SAT", None, (29, 4, 32), "4669c484111c0f879123a14eef0b51ecdb441433921dd42ab182caa83889be9f"),
        ("SAT", None, (29, 4, 32), "4669c484111c0f879123a14eef0b51ecdb441433921dd42ab182caa83889be9f"),
        ("COVERING", (1, 2, 3), (24, 4, 27), "5aa046bda3b5c6f06ad13333c342c54ede0639a46c6c49661ebf6dbdd9c7e1a8"),
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
    (60, 601, "none"): ("UNSAT", ("unreachable-column", 217), (3111, 1212, 3494), "d62940778a22438bb3c77f2b63d28cfb125f7070bf051485c20bc1a8a6ecdf2a"),
    (90, 602, "none"): ("UNSAT", ("unreachable-column", 7), (4260, 1223, 4619), "7240f3f4aab422c5a82182dc006387285d1506a147ea0b82dc455a6ebeeed2ab"),
    (120, 603, "none"): ("UNSAT", ("unreachable-column", 212), (5707, 1894, 6346), "b520c41bf0d8d01fd35b9d18d7e34119373ff3f0e3aaff3a902f01a1d620ebf5"),
    (150, 604, "none"): ("UNSAT", ("unreachable-column", 136), (6817, 1851, 7454), "de88e4f622b90bcb450831eb6840f3bc0f3e4a1d46cd9bd721f50aa9fa172b6b"),
    (60, 605, "planted"): ("UNSAT", ("unreachable-column", 83), (2689, 701, 2942), "f4c48aa7e7f8cbed848392e2aaa0a92bd4eff6468902a0793c9c1125c8ebeb20"),
    (100, 606, "planted"): ("UNSAT", ("unreachable-column", 195), (4713, 1765, 5310), "f965a27798e8bd0c5f18d9c8320a4f9b115bb46ea08c80e3316bc19d2cccde62"),
    (150, 607, "planted"): ("UNSAT", ("unreachable-column", 211), (6994, 2165, 7751), "de453156fdae5344469793bf0a9e67c78533747b280e8896b80fbb0df16116c3"),
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
    ("UNSAT", ("unreachable-column", 1638), (91697, 27456, 100857), "89d4a144c2e7c08365bf46be5bd9845d177866690ee225a4887f4b669dd07378"),
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
RANDOM_DIGEST = "a9b71760efd5b58ba43168140a3a443b62c98e449cb1f3d269cbb9cfd5e2c4b6"
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
