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
        ("SAT", None, (20, 2, 21), "15a157f8dfb23cebb1e57c5ae28f59bc7c17c089603c641cb9cfd515cd07c73a"),
        ("SAT", None, (20, 2, 21), "15a157f8dfb23cebb1e57c5ae28f59bc7c17c089603c641cb9cfd515cd07c73a"),
        ("COVERING", (1, 2), (17, 2, 18), "f04132e8940d24b4e8672173501290023db1dd385eb9933ee00e8a323a0d7cb3"),
    ),
    "E2": (
        ("UNSAT", ("non-removable-useless-vertex", 1), (18, 0, 16), "d2733a927858f4f42eb2e14d73422c6d2841480846e9a095da68f956bcb16aaf"),
        ("UNSAT", ("both-components-single", 1), (6, 0, 6), "834fa167cd3e78e20fb428a2377a1b1ac67a7b8524152e0f1f53191a7d89c950"),
        ("NO_COVERING", ("non-removable-useless-vertex", 1), (16, 0, 14), "124a701c2bbf8dce4dc56d4fd8c6453991863c1820f959a24cb4736138624a32"),
    ),
    "E3": (
        ("UNSAT", ("unreachable-column", 1), (35, 0, 33), "fb654d781133bbc4df8a9e3b150f9ee3546c860622d412a6ddc7b427c42ec9fa"),
        ("UNSAT", ("unreachable-column", 1), (35, 0, 33), "fb654d781133bbc4df8a9e3b150f9ee3546c860622d412a6ddc7b427c42ec9fa"),
        ("NO_COVERING", ("unreachable-column", 1), (31, 0, 29), "db626f6cf1b6ad995dc40971f7510dc36b0bfb42089fd22ad618161272c4ce6d"),
    ),
    "E4": (
        ("SAT", None, (45, 2, 49), "a09bda7b7319a750962aaf5fdd5804d51b725057ffedff2335d3364281c19ec2"),
        ("SAT", None, (45, 2, 49), "a09bda7b7319a750962aaf5fdd5804d51b725057ffedff2335d3364281c19ec2"),
        ("COVERING", (1, 2, 3), (40, 2, 44), "3edad586ca7ae50031a6c820af2046eaf65a05ae23422fc7b54d967f64b7b38b"),
    ),
    "E5": (
        ("SAT", None, (26, 4, 28), "413e3ee52f26bc7f48bbd98cbf55b1109b2df20bdea0a4a0f869afc0e120eaab"),
        ("SAT", None, (26, 4, 28), "413e3ee52f26bc7f48bbd98cbf55b1109b2df20bdea0a4a0f869afc0e120eaab"),
        ("COVERING", (1, 2, 3), (21, 4, 23), "1dcc93739a7597ed2522dbd881602c55945ff0e31cd88eee933be9b7908aef43"),
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
    (60, 601, "none"): ("UNSAT", ("unreachable-column", 217), (2814, 1212, 4094), "aea8e2c6ff8dd7b7e68e709b5bafe819534f1a4c7ee53750c0b436ca9abec005"),
    (90, 602, "none"): ("UNSAT", ("unreachable-column", 7), (3831, 1223, 5113), "756fc816a7972f25002a8a0ee36ca6cb229d534f4e52d83057bd4dce647133bc"),
    (120, 603, "none"): ("UNSAT", ("unreachable-column", 212), (5143, 1894, 7142), "54a81139d7a7f7dd2a7915597c5c16e270bde7512393e31d0d22f271df5c90a1"),
    (150, 604, "none"): ("UNSAT", ("unreachable-column", 136), (6091, 1851, 8069), "7cf15a7ea2ab8f3fe96378b89f1cd640c598ce3b0143b1859e67719687984c74"),
    (60, 605, "planted"): ("UNSAT", ("unreachable-column", 83), (2401, 701, 3180), "84b2d41b325ac80baca1b1de1125560c6c5334f6f687b0fe761535752d9af376"),
    (100, 606, "planted"): ("UNSAT", ("unreachable-column", 195), (4215, 1765, 6044), "b5154fd5e5c59d88eea6158dafbf879d55184a6e2316b097161c328408db8185"),
    (150, 607, "planted"): ("UNSAT", ("unreachable-column", 211), (6313, 2165, 8593), "320767b550f3bd25bbe1edd97e845cd507bcc32ecded191087ba1bc4f1b78d80"),
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
    ("UNSAT", ("unreachable-column", 1638), (82118, 27456, 110917), "6984fc2a1a614e04255cd347275e5c367cca3ce0069dd507ff8d38d5ed88d848"),
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
RANDOM_DIGEST = "a017b3b5e28e7cc267bb9bdf6f45abb9304738d009aff12beac9d1435d155d06"
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
