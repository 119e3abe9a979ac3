"""Seeded benchmark workloads.

Each workload is a list of rows (infix boolean expressions, one round),
the `caviar prove` flags it runs under, and a job count. The seed is a
benchmark argument; the prover receives only the generated rows. Every row
carries its known answer, set by construction for the families defined
here and by exhaustive evaluation (verdict.known_answer) for the rows taken
from caviar.corpusgen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from caviar import corpusgen

import verdict

NAMES = ("corpus-full", "blowup-vanilla", "pulse-fixed", "corpus-jobs2")


@dataclass
class Workload:
    name: str
    flags: list[str]          # `caviar prove` flags the rows run under
    jobs: int
    rows: list[str]           # one round, proved in order and then repeated
    answers: list[str]        # verdict.TRUE / FALSE / NONCONST per row


def _deep_term(rng: random.Random) -> str:
    """A depth-1 or depth-2 term over corpusgen's division terms."""
    t = corpusgen._term(rng)
    if rng.randrange(2) == 0:
        return t
    u = corpusgen._term(rng)
    op = rng.choice(["+", "-", "min", "max"])
    if op in ("min", "max"):
        return f"{op}({t}, {u})"
    return f"({t}) {op} ({u})"


# Identities over two random terms, with their answers by construction.
# Every form is decided well inside one pulse except where NPPD wrongly
# gives up: the two `==` forms are identically true, yet they come back
# non_provable (for `== 0`, var-eq-const `(== ?x ?c)` fires at iteration 0
# because ?x is not yet known constant). The benchmark counts those as
# contradicted verdicts.
_DEEP_FORMS = (
    ("{t} + {u} - {u} <= {t}", verdict.TRUE),
    ("min({t}, {u}) <= max({t}, {u})", verdict.TRUE),
    ("{t} * 2 / 2 == {t}", verdict.TRUE),
    ("{u} + {t} != {t} + {u}", verdict.FALSE),
    ("{t} + {u} - ({u} + {t}) == 0", verdict.TRUE),
    ("{t} + {u} < {u} + {t}", verdict.FALSE),
    ("{t} - {u} + {u} >= {t}", verdict.TRUE),
)


def gen_deep(rng: random.Random, n: int) -> list[tuple[str, str]]:
    out = []
    for i in range(n):
        form, answer = _DEEP_FORMS[i % len(_DEEP_FORMS)]
        t, u = _deep_term(rng), _deep_term(rng)
        out.append((form.format(t=f"({t})", u=f"({u})"), answer))
    return out


def gen_blowup(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """corpusgen.gen_blowup's shape, `v + (a + b) * ... * 0 <= v`, with three
    factors over distinct variable pairs. gen_blowup's own rows range from
    about 4e3 to 3e4 e-nodes at four iterations, so a run of a few rows would
    measure which rows were drawn; these all reach 8.6e3 to 8.9e3 e-nodes in
    about a second, so each row is proved several times in one run."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    out = []
    for _ in range(n):
        factors = " * ".join(f"(v{a} + v{b})" for a, b in rng.sample(pairs, 3))
        v = f"v{rng.randrange(5)}"
        out.append((f"{v} + {factors} * 0 <= {v}", verdict.TRUE))
    return out


def gen_pulse(rng: random.Random, n: int) -> list[str]:
    """The family of intro-2, `max((v0 + -1) / 2, ((v0 + 1) % 2) * 2) <=
    (v0 + 1) / 2`, with small random constants."""
    out = []
    for _ in range(n):
        v = f"v{rng.randrange(5)}"
        a, c, f = (rng.randrange(-3, 9) for _ in range(3))
        b, d, e, g = (rng.randrange(2, 9) for _ in range(4))
        out.append(f"max(({v} + {a}) / {b}, (({v} + {c}) % {d}) * {e}) <= ({v} + {f}) / {g}")
    return out


def _corpus_rows(seed: int) -> tuple[list[str], list[str]]:
    rows = []
    for gen in (corpusgen.gen_provable, corpusgen.gen_nonprovable,
                corpusgen.gen_nearmiss, corpusgen.gen_blowup):
        rows += gen(random.Random(seed))
    answers = [verdict.known_answer(r) for r in rows]
    # about a fifth of the round is the deep-identity family
    deep = gen_deep(random.Random(seed ^ 0xDEE9), len(rows) // 4)
    rows += [r for r, _ in deep]
    answers += [a for _, a in deep]
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    return [rows[i] for i in order], [answers[i] for i in order]


def make(name: str, seed: int) -> Workload:
    if name in ("corpus-full", "corpus-jobs2"):
        rows, answers = _corpus_rows(seed)
        jobs = 2 if name == "corpus-jobs2" else 1
        return Workload(name, [], jobs, rows, answers)
    if name == "blowup-vanilla":
        pairs = gen_blowup(random.Random(seed), 1)
        flags = ["--no-ilc", "--no-nppd", "--no-pulse", "--deterministic",
                 "--iter-limit", "4", "--node-limit", "1000000"]
        return Workload(name, flags, 1, [r for r, _ in pairs],
                        [a for _, a in pairs])
    if name == "pulse-fixed":
        # Three one-iteration pulses per row: e-graph build and extraction at
        # every pulse. On a shared 2-vCPU VM, rows of intro-2's own length
        # (12 pulses, about 70 ms) spread up to 44% from run to run; these
        # take about 6 ms, short enough for a row's fastest proof to fall in
        # a quiet moment of the host.
        rows = gen_pulse(random.Random(seed), 40)
        flags = ["--deterministic", "--iter-limit", "4", "--pulse-iters", "1"]
        return Workload(name, flags, 1, rows,
                        [verdict.known_answer(r) for r in rows])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
