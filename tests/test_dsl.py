import numpy as np
import pytest

from formlab import GroupoidRep, algebra_fiber, identity, so3
from formlab.algebra import random_group_element
from formlab.dsl import (
    Atom,
    CompositionExpr,
    Diagnostic,
    compose_word,
    evaluate,
    parse,
    typecheck,
)

from helpers import rotation

REP = GroupoidRep(algebra_fiber(so3()))


@pytest.fixture
def table():
    g = rotation(0, np.pi / 2)
    return {
        "e": identity("SO3"),
        "g": g,
        "h": rotation(2, np.pi / 2),
        "ginv": g.inverse(),
        "k": rotation(1, 0.7),
    }


def test_parse_single_atom():
    expr = parse("g[0]")
    assert expr == CompositionExpr((Atom("g", 0, 0),))
    assert expr.atoms[0].offset == 0


def test_parse_two_atoms_in_application_order():
    expr = parse("g[0] . h[1]")
    assert [(a.name, a.degree) for a in expr.atoms] == [("g", 0), ("h", 1)]
    assert [a.offset for a in expr.atoms] == [0, 7]


def test_parse_rejects_bad_degree():
    diag = parse("g[2]")
    assert diag == Diagnostic("parse_error", 2, "degree must be 0 or 1")


@pytest.mark.parametrize(
    "source,offset",
    [
        ("", 0),
        ("g", 0),  # unexpected end: clamped inside the source
        ("g[", 1),
        ("g[0", 2),
        ("g[0] h[1]", 5),
        ("g[0] . ", 6),
        ("g[0] , h[1]", 5),
        ("1g[0]", 0),
        ("g[0] . h[1] extra", 12),
    ],
)
def test_parse_error_offsets(source, offset):
    diag = parse(source)
    assert isinstance(diag, Diagnostic)
    assert diag.kind == "parse_error"
    assert diag.offset == offset
    if source:
        assert 0 <= diag.offset < len(source)


def test_parse_rejects_non_ascii():
    diag = parse("g[0] ∘ h[1]")
    assert isinstance(diag, Diagnostic) and diag.offset == 5


def test_roundtrip_printing(rng):
    names = ["g", "h", "e", "ginv", "k", "a_1", "B2"]
    for _ in range(50):
        n = int(rng.integers(1, 7))
        atoms = [
            f"{names[rng.integers(len(names))]}[{rng.integers(2)}]" for _ in range(n)
        ]
        sep = [" . ", " .  ", "  .  ", "."][int(rng.integers(4))]
        source = sep.join(atoms)
        expr = parse(source)
        assert isinstance(expr, CompositionExpr)
        printed = expr.to_source()
        again = parse(printed)
        assert again == expr
        assert again.to_source() == printed


def test_typecheck_alternating_word(table):
    chain = typecheck(parse("g[0] . h[1]"), table)
    assert not isinstance(chain, Diagnostic)
    assert (chain[-1].source, chain[0].target) == (1, 1)


def test_typecheck_same_degree_mismatch(table):
    diag = typecheck(parse("g[0] . h[0]"), table)
    assert isinstance(diag, Diagnostic)
    assert diag.kind == "degree_mismatch"
    assert diag.offset == 7


def test_typecheck_identity_is_degree_preserving(table):
    chain = typecheck(parse("e[0] . g[1] . h[0]"), table)
    assert not isinstance(chain, Diagnostic)
    assert (chain[-1].source, chain[0].target) == (0, 0)


def test_typecheck_unknown_symbol(table):
    diag = typecheck(parse("g[0] . nope[1]"), table)
    assert diag == Diagnostic("unknown_symbol", 7, "unknown symbol 'nope'")


def test_evaluate_identity_word(table):
    out = compose_word("e[0]", table, REP)
    assert out.morphism.source == 0 and out.morphism.target == 0
    assert np.allclose(REP.matrix(out.morphism.g), np.eye(3), atol=1e-14)


def test_evaluate_inverse_word(table):
    out = compose_word("ginv[1] . g[0]", table, REP)
    assert np.max(np.abs(REP.matrix(out.morphism.g) - np.eye(3))) <= 1e-12
    assert out.morphism.g.is_identity()


def test_evaluate_noncommuting_words_differ(table):
    m1 = REP.matrix(compose_word("g[1] . h[0]", table, REP).morphism.g)
    m2 = REP.matrix(compose_word("h[1] . g[0]", table, REP).morphism.g)
    assert np.linalg.norm(m1 - m2, 2) > 0.1


def test_evaluate_matches_ordered_matrix_product(table):
    # the element compose reports: leftmost atom leftmost in the product,
    # which folds from the right as the atoms apply
    out = compose_word("g[0] . h[1] . k[0]", table, REP)
    expected = table["g"].matrix @ (table["h"].matrix @ table["k"].matrix)
    assert np.max(np.abs(out.morphism.g.matrix - expected)) == 0.0
    assert (out.morphism.source, out.morphism.target) == (0, 1)


def test_typechecked_words_never_fail_evaluation(rng):
    # fuzzed soundness: anything the checker accepts must evaluate
    elements = {
        "e": identity("SO3"),
        "a": random_group_element(so3(), rng),
        "b": random_group_element(so3(), rng),
        "c": random_group_element(so3(), rng),
    }
    names = list(elements)
    accepted = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        source = " . ".join(
            f"{names[rng.integers(len(names))]}[{rng.integers(2)}]" for _ in range(n)
        )
        expr = parse(source)
        assert isinstance(expr, CompositionExpr)
        chain = typecheck(expr, elements)
        if isinstance(chain, Diagnostic):
            assert chain.kind == "degree_mismatch"
            assert 0 <= chain.offset < len(source)
            assert source[chain.offset] in "eabc"
            continue
        accepted += 1
        out = evaluate(chain, REP)
        assert out.morphism.target == (out.morphism.source + out.morphism.shift) % 2
    assert accepted > 0
