"""The package's public surface: the front door that ``__all__`` lists, the
names that live only in their own modules, and the value classes, which are
NamedTuples."""
import copy

import pytest

import satcover
from satcover import cnf, decomposition, graph, harness, instrument, procedures, solver
from satcover import (
    CnfFormula,
    ColumnCounts,
    CoveringFound,
    EngineError,
    NoCovering,
    Reason,
    Sat,
    SolveRun,
    StructuralError,
    Unsat,
    Violation,
)
from satcover.harness import DifferentialReport, FuzzConfig
from satcover.instrument import Trace
from satcover.procedures import ExtensionPlan, RemovalOutcome, Unreachable

from conftest import typed


# the front door, by home module; __version__ is the one other name
FRONT_DOOR = {
    cnf: (
        "CnfFormula", "ParseError", "assignment_from_swaps", "emit_dimacs",
        "evaluate", "parse_dimacs", "restrict_to_used", "to_decomposition",
    ),
    decomposition: (
        "ColumnCounts", "DecompositionPair", "StructuralError", "Violation",
        "apply_swaps", "column_counts", "input_length", "is_alpha_covering",
        "validate",
    ),
    solver: (
        "CoveringFound", "EngineError", "NoCovering", "Reason", "Sat",
        "SolveRun", "Unsat", "build_covering_report", "build_sat_report",
        "report_json", "solve_covering", "solve_sat",
    ),
}

# public where they are defined, and not in the package namespace
ELSEWHERE = {
    graph: ("PointingGraph", "construct", "find_main_vertices"),
    procedures: (
        "ExtensionPlan", "RemovalOutcome", "StateSnapshot", "Unreachable",
        "clean", "eliminate_incompatibilities", "extend", "removal_procedure",
    ),
    instrument: ("DISABLED_OPS", "OpCounter", "Trace"),
    harness: (
        "DifferentialReport", "FuzzConfig", "brute_covering", "brute_sat",
        "complexity_probe", "diff_exhaustive", "differential_run", "dpll",
        "enumerate_clause_universe", "enumerate_formulas", "random_cnf",
        "shrink_disagreement",
    ),
}


class TestNames:
    def test_every_name_resolves_and_is_listed(self):
        assert sorted(satcover.__all__) == [
            "CnfFormula", "ColumnCounts", "CoveringFound", "DecompositionPair",
            "EngineError", "NoCovering", "ParseError", "Reason", "Sat",
            "SolveRun", "StructuralError", "Unsat", "Violation", "__version__",
            "apply_swaps", "assignment_from_swaps", "build_covering_report",
            "build_sat_report", "column_counts", "emit_dimacs", "evaluate",
            "input_length", "is_alpha_covering", "parse_dimacs", "report_json",
            "restrict_to_used", "solve_covering", "solve_sat",
            "to_decomposition", "validate",
        ]
        listed = dir(satcover)
        for name in satcover.__all__:
            assert getattr(satcover, name) is not None, name
            assert name in listed, name

    def test_each_name_is_its_home_modules_object(self):
        for module, names in FRONT_DOOR.items():
            for name in names:
                assert getattr(satcover, name) is getattr(module, name), name
        assert sum(map(len, FRONT_DOOR.values())) + 1 == len(satcover.__all__)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from satcover import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(satcover.__all__)

    def test_steps_instruments_and_harness_live_in_their_modules(self):
        # no PEP 562 layer: a name the package does not bind is not served
        assert "__getattr__" not in vars(satcover)
        assert "__dir__" not in vars(satcover)
        for module, names in ELSEWHERE.items():
            for name in names:
                assert getattr(module, name) is not None, name
                assert not hasattr(satcover, name), name
        with pytest.raises(AttributeError, match="has no attribute 'FuzzConfig'"):
            satcover.FuzzConfig

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            satcover.no_such_name
        with pytest.raises(ImportError):
            exec("from satcover import no_such_name", {})


REASON = Reason("unreachable-column", 3)
TRACE = Trace()

# class -> (keyword arguments, repr of the instance they build)
VALUES = {
    "CnfFormula": (
        CnfFormula, {"num_vars": 2, "clauses": [[1, -2], [2]]},
        "CnfFormula(num_vars=2, clauses=[[1, -2], [2]])",
    ),
    "Violation": (
        Violation, {"condition": "coverage", "column": 2},
        "Violation(condition='coverage', row=None, column=2)",
    ),
    "ColumnCounts": (
        ColumnCounts, {"m_alpha": (1, 0), "m_alpha_bar": (0, 2)},
        "ColumnCounts(m_alpha=(1, 0), m_alpha_bar=(0, 2))",
    ),
    "Reason": (
        Reason, {"kind": "empty-clause"}, "Reason(kind='empty-clause', index=None)",
    ),
    "CoveringFound": (
        CoveringFound, {"swaps": frozenset({2})}, "CoveringFound(swaps=frozenset({2}))",
    ),
    "NoCovering": (
        NoCovering, {"reason": REASON},
        "NoCovering(reason=Reason(kind='unreachable-column', index=3))",
    ),
    "Sat": (Sat, {"assignment": (True, False)}, "Sat(assignment=(True, False))"),
    "Unsat": (
        Unsat, {"reason": REASON},
        "Unsat(reason=Reason(kind='unreachable-column', index=3))",
    ),
    "EngineError": (EngineError, {"detail": "broken"}, "EngineError(detail='broken')"),
    "SolveRun": (
        SolveRun, {"verdict": Sat(()), "trace": TRACE, "extensions": 1},
        f"SolveRun(verdict=Sat(assignment=()), trace={TRACE!r}, extensions=1)",
    ),
    "RemovalOutcome": (
        RemovalOutcome, {"removable": False, "removed_vertices": (3, 1)},
        "RemovalOutcome(removable=False, removed_vertices=(3, 1))",
    ),
    "ExtensionPlan": (
        ExtensionPlan, {"new_main_vertices": [4], "columns": [2]},
        "ExtensionPlan(new_main_vertices=[4], columns=[2])",
    ),
    "Unreachable": (Unreachable, {"column": 5}, "Unreachable(column=5)"),
    "FuzzConfig": (
        FuzzConfig, {"seed": 1, "var_range": (2, 3)},
        "FuzzConfig(seed=1, num_instances=100, var_range=(2, 3), clause_range=(1, 30), "
        "width_range=(1, 3), satisfiable_bias='none')",
    ),
    "DifferentialReport": (
        DifferentialReport,
        {
            "config": {}, "generated": 0, "total": 0, "agreements": 0, "disagreements": [],
            "gate_failures": 0, "engine_errors": [], "unknown": 0, "op_stats": {}, "extra": {},
        },
        "DifferentialReport(config={}, generated=0, total=0, agreements=0, disagreements=[], "
        "gate_failures=0, engine_errors=[], unknown=0, op_stats={}, extra={})",
    ),
}


def same(a, b) -> bool:
    """Equal values; a trace (which has no ``__eq__``) by its events and op
    counter readings."""
    if isinstance(a, Trace):
        return a.events == b.events and a.ops.total == b.ops.total
    if isinstance(a, tuple) and hasattr(a, "_fields"):
        return type(a) is type(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("case", list(VALUES))
class TestValueClasses:
    def test_keywords_defaults_and_repr(self, case):
        cls, kwargs, text = VALUES[case]
        value = cls(**kwargs)
        assert repr(value) == text  # fields left out read their defaults
        for name, given in kwargs.items():
            assert getattr(value, name) is given
        # a NamedTuple: iterable, and equal to the tuple of its fields
        fields = tuple(getattr(value, name) for name in value._fields)
        assert tuple(iter(value)) == fields and value == fields

    def test_immutable(self, case):
        cls, kwargs, _ = VALUES[case]
        value = cls(**kwargs)
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    def test_deepcopy_round_trip(self, case):
        cls, kwargs, _ = VALUES[case]
        value = cls(**kwargs)
        duplicate = copy.deepcopy(value)
        assert type(duplicate) is cls
        assert same(duplicate, value)

    def test_unknown_keyword_refused(self, case):
        cls, kwargs, _ = VALUES[case]
        with pytest.raises(TypeError):
            cls(**kwargs, no_such_field=1)


def test_verdicts_name_their_report_word():
    assert [cls.status for cls in (CoveringFound, NoCovering, Sat, Unsat, EngineError)] == [
        "COVERING", "NO_COVERING", "SAT", "UNSAT", "ERROR",
    ]
    assert Sat(()).status == "SAT"
    assert "status" not in Sat._fields


def test_typed_tells_equal_tuples_of_other_classes_apart():
    # the verdict asserts compare typed(...), since the tuples themselves are equal
    reason = Reason("unreachable-column", 3)
    assert Unsat(reason) == NoCovering(reason)
    assert typed(Unsat(reason)) != typed(NoCovering(reason))
    assert typed(Unsat(reason)) != typed(Unsat(("unreachable-column", 3)))
    assert typed(Unsat(reason)) == typed(Unsat(Reason("unreachable-column", 3)))


def test_each_report_gets_its_own_extra():
    _, kwargs, _ = VALUES["DifferentialReport"]
    given = {"k": 1}
    assert DifferentialReport(**{**kwargs, "extra": given}).extra is given


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CnfFormula(num_vars=1, clauses=[[2]]), StructuralError,
         "clause 1: literal 2 outside +/-1..1"),
        (lambda: CnfFormula(2, [[1], [0]]), StructuralError, "clause 2: literal 0 outside +/-1..2"),
        (lambda: CnfFormula(2, [[1, -2, 1]]), StructuralError, "clause 1: variable 1 occurs twice"),
        (lambda: FuzzConfig(seed=-1), ValueError, "seed must be at least 0, got -1"),
        (lambda: FuzzConfig(1, width_range=(3, 2)), ValueError,
         "width_range must be a pair of ints 1 <= lo <= hi, got (3, 2)"),
        (lambda: FuzzConfig(1, num_instances=2**32 + 1), ValueError,
         "num_instances must be at most 4294967296, got 4294967297"),
        (lambda: FuzzConfig(1, satisfiable_bias="all"), ValueError,
         "unknown satisfiable_bias 'all'"),
    ],
    ids=[
        "literal-range", "zero-literal", "repeated-variable", "seed",
        "range", "num-instances", "bias",
    ],
)
def test_validation_text(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_validated_classes_check_a_deep_copy_and_a_positional_build():
    formula = CnfFormula(3, [[1, -3]])
    assert copy.deepcopy(formula) == formula
    assert CnfFormula(*formula) == formula
    assert FuzzConfig(*FuzzConfig(seed=4)) == FuzzConfig(seed=4)
