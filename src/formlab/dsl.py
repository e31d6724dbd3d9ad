"""A tiny language for composition words of degree-tagged group actions.

Grammar (ASCII only):

    expr  := atom (WS* "." WS* atom)*
    atom  := IDENT "[" ("0" | "1") "]"
    IDENT := [A-Za-z_][A-Za-z0-9_]*

"g[i]" names the primitive action of the group element bound to "g" with
source degree i.  Composition is right to left, matching the mathematical
circle: in "g[0] . h[1]" the atom h[1] applies first.  Errors are reported
as Diagnostic values carrying the byte offset of the offending token, never
as exceptions: the parser and the degree checker return either their result
or a Diagnostic.
"""

from __future__ import annotations

from ._records import field, record
from .graded import GradedMorphism, GroupoidRep, compose, primitive_morphism

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


@record()
class Atom:
    name: str
    degree: int
    offset: int = field(compare=False)

    def to_source(self) -> str:
        return f"{self.name}[{self.degree}]"


@record()
class CompositionExpr:
    atoms: tuple

    def to_source(self) -> str:
        return " . ".join(a.to_source() for a in self.atoms)


@record()
class Diagnostic:
    kind: str  # "parse_error" | "unknown_symbol" | "degree_mismatch"
    offset: int
    message: str


def _clamp(pos: int, source: str) -> int:
    return max(0, min(pos, len(source) - 1)) if source else 0


def parse(source: str):
    """Parse a composition word; returns CompositionExpr or Diagnostic."""
    for i, ch in enumerate(source):
        if ord(ch) > 127:
            return Diagnostic("parse_error", i, "non-ASCII character")

    def skip_ws(pos):
        while pos < len(source) and source[pos] in " \t":
            pos += 1
        return pos

    atoms = []
    pos = skip_ws(0)
    while True:
        if pos >= len(source) or source[pos] not in _IDENT_START:
            return Diagnostic("parse_error", _clamp(pos, source), "expected an identifier")
        start = pos
        while pos < len(source) and source[pos] in _IDENT_CONT:
            pos += 1
        name = source[start:pos]
        if pos >= len(source) or source[pos] != "[":
            return Diagnostic("parse_error", _clamp(pos, source), "expected '['")
        pos += 1
        if pos >= len(source) or source[pos] not in "01":
            return Diagnostic("parse_error", _clamp(pos, source), "degree must be 0 or 1")
        degree = int(source[pos])
        pos += 1
        if pos >= len(source) or source[pos] != "]":
            return Diagnostic("parse_error", _clamp(pos, source), "expected ']'")
        pos += 1
        atoms.append(Atom(name, degree, start))
        pos = skip_ws(pos)
        if pos >= len(source):
            return CompositionExpr(tuple(atoms))
        if source[pos] != ".":
            return Diagnostic("parse_error", pos, "expected '.' between atoms")
        pos = skip_ws(pos + 1)


def typecheck(expr: CompositionExpr, table):
    """Resolve atoms to primitive morphisms and check adjacent degrees.

    Atoms are listed left to right but apply right to left, so atom i must
    have target degree equal to the source degree of atom i-1.  Returns the
    morphism chain (same order as the atoms) or a Diagnostic.
    """
    morphisms = []
    for i, atom in enumerate(expr.atoms):
        g = table.get(atom.name)
        if g is None:
            return Diagnostic("unknown_symbol", atom.offset, f"unknown symbol {atom.name!r}")
        m = primitive_morphism(g, atom.degree)
        if i > 0 and m.target != morphisms[i - 1].source:
            return Diagnostic(
                "degree_mismatch",
                atom.offset,
                f"{atom.to_source()} has target degree {m.target} but the atom "
                f"to its left expects source degree {morphisms[i - 1].source}",
            )
        morphisms.append(m)
    return tuple(morphisms)


@record(eq=False)
class EvaluatedWord:
    morphism: GradedMorphism


def evaluate(morphisms, rep: GroupoidRep) -> EvaluatedWord:
    """Fold a typechecked chain into one morphism, composed right to left;
    cannot raise on a chain that typechecked.  `rep` is not read: the
    word's matrix in it is `rep.matrix(word.morphism.g)`."""
    total = morphisms[-1]
    for m in reversed(morphisms[:-1]):
        total = compose(m, total)
    return EvaluatedWord(total)


def compose_word(source: str, table, rep: GroupoidRep):
    """Parse, typecheck and evaluate; returns EvaluatedWord or Diagnostic."""
    expr = parse(source)
    if isinstance(expr, Diagnostic):
        return expr
    chain = typecheck(expr, table)
    if isinstance(chain, Diagnostic):
        return chain
    return evaluate(chain, rep)
