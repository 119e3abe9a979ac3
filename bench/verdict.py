"""Known answers and output checks, independent of the prover under test.

The benchmark parses rows with its own infix parser and evaluates them with
NumPy over whole grids of assignments at once, so a defect in the prover's
parser or evaluator cannot hide a wrong verdict. Semantics match the
expression language: `/` and `%` round toward negative infinity, and
`x / 0 = x % 0 = 0`.
"""

from __future__ import annotations

import re

import numpy as np

TRUE = "true"              # constant true
FALSE = "false"            # constant false
NONCONST = "nonconst"      # both truth values reachable

# Verdicts a row may end with when its answer is known.
EXPECTED = {TRUE: "proved_true", FALSE: "proved_false", NONCONST: "non_provable"}

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(<=|>=|==|!=|&&|\|\||[-+*/%<>!(),]))")
_CMP = ("<", "<=", ">", ">=", "==", "!=")

# Grid size per row: every variable gets the same range, wide enough to
# cover the row's literals and as wide as this many points allow.
GRID_POINTS = 1 << 16


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over the infix grammar: `||` < `&&` < one
    comparison < `+ -` < `* / %` < unary `- !` < atoms and `min`/`max`."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want or 'a token'}, found {tok!r}")
        self.i += 1
        return tok

    def parse(self):
        e = self.or_()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.peek()!r}")
        return e

    def or_(self):
        e = self.and_()
        while self.peek() == "||":
            self.take()
            e = ("||", e, self.and_())
        return e

    def and_(self):
        e = self.cmp()
        while self.peek() == "&&":
            self.take()
            e = ("&&", e, self.cmp())
        return e

    def cmp(self):
        e = self.sum()
        if self.peek() in _CMP:
            op = self.take()
            e = (op, e, self.sum())
        return e

    def sum(self):
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            e = (op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek() in ("*", "/", "%"):
            op = self.take()
            e = (op, e, self.unary())
        return e

    def unary(self):
        tok = self.peek()
        if tok == "-":
            self.take()
            return ("neg", self.unary())
        if tok == "!":
            self.take()
            return ("!", self.unary())
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return int(tok)
        if tok in ("true", "false"):
            return tok == "true"
        if tok in ("min", "max"):
            self.take("(")
            a = self.or_()
            self.take(",")
            b = self.or_()
            self.take(")")
            return (tok, a, b)
        if tok == "(":
            e = self.or_()
            self.take(")")
            return e
        if tok[0].isalpha() or tok[0] == "_":
            return ("var", tok)
        raise ValueError(f"unexpected token {tok!r}")


def parse(text: str):
    """Nested tuples: ints, bools, ("var", name), (op, child...)."""
    return _Parser(text).parse()


def variables(tree) -> set[str]:
    if not isinstance(tree, tuple):
        return set()
    if tree[0] == "var":
        return {tree[1]}
    return set().union(*(variables(c) for c in tree[1:]))


def literals(tree) -> list[int]:
    if isinstance(tree, bool):
        return []
    if isinstance(tree, int):
        return [tree]
    if tree[0] == "var":
        return []
    return [x for c in tree[1:] for x in literals(c)]


def _div(a, b):
    safe = np.where(b == 0, 1, b)
    return np.where(b == 0, 0, np.floor_divide(a, safe))


def _mod(a, b):
    safe = np.where(b == 0, 1, b)
    return np.where(b == 0, 0, np.mod(a, safe))


_BINARY = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": _div, "%": _mod,
    "min": np.minimum, "max": np.maximum,
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    "==": np.equal, "!=": np.not_equal,
    "&&": np.logical_and, "||": np.logical_or,
}


def evaluate(tree, env: dict):
    """Value of `tree` at every point of `env` (name -> int64 array)."""
    if isinstance(tree, (bool, int)):
        return tree
    op = tree[0]
    if op == "var":
        return env[tree[1]]
    if op == "neg":
        return np.negative(evaluate(tree[1], env))
    if op == "!":
        return np.logical_not(evaluate(tree[1], env))
    return _BINARY[op](evaluate(tree[1], env), evaluate(tree[2], env))


def grid(names: list[str], radius: int) -> dict:
    """Every assignment of the names to [-radius, radius]."""
    if not names:
        return {}
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    mesh = np.meshgrid(*([axis] * len(names)), indexing="ij")
    return {n: m.ravel() for n, m in zip(names, mesh)}


def grid_radius(tree) -> int:
    """Radius of the known-answer grid: past every literal, and as wide as
    GRID_POINTS points allow for the row's number of variables."""
    k = max(1, len(variables(tree)))
    cover = max((abs(x) for x in literals(tree)), default=0) + 2
    room = int(round(GRID_POINTS ** (1.0 / k))) // 2
    return max(cover, room)


def known_answer(source: str) -> str:
    """TRUE, FALSE or NONCONST by exhaustive evaluation over grid_radius."""
    tree = parse(source)
    names = sorted(variables(tree))
    vals = np.asarray(evaluate(tree, grid(names, grid_radius(tree))), dtype=bool)
    if vals.all():
        return TRUE
    if not vals.any():
        return FALSE
    return NONCONST


def contradicts(outcome: str, answer: str) -> bool:
    """A decided verdict that disagrees with the known answer. `unknown`
    never contradicts; `error` is counted as failed elsewhere."""
    if outcome not in ("proved_true", "proved_false", "non_provable"):
        return False
    return EXPECTED[answer] != outcome


def unsound(outcome: str, answer: str) -> bool:
    """A proof of a value the row does not have everywhere."""
    return outcome in ("proved_true", "proved_false") and EXPECTED[answer] != outcome


def sample_env(names: list[str], seed: int, n: int = 256) -> dict:
    rng = np.random.default_rng(seed)
    return {name: rng.integers(-40, 41, size=n, dtype=np.int64) for name in names}


def equivalent(source: str, rewritten: str, seed: int = 0) -> bool:
    """The extracted form agrees with the row at the origin and at 256
    seeded points in [-40, 40]^k."""
    a, b = parse(source), parse(rewritten)
    names = sorted(variables(a) | variables(b))
    env = sample_env(names, seed)
    for name in names:
        env[name][0] = 0
    va = np.broadcast_to(evaluate(a, env), (256,))
    vb = np.broadcast_to(evaluate(b, env), (256,))
    return bool(np.array_equal(va, vb))
