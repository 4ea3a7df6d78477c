"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload owns a pool of distinct seeded jobs; job j of a run uses pool
entry j modulo the pool size, so consecutive jobs never repeat an input and a
cache keyed on whole inputs cannot turn a later job into a lookup.  Every
operation is a closure that calls idop through `lib`, looking the function up
at call time so that the traced run's wrappers are the ones called.

The references the outputs are checked against never come from the product
engine being measured: closed forms and a frozen table (filtration), the
faithful polynomial action and a direct reading of the printed form (powers), and
verdicts whose answer is known to be True (checks).
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

# Dimensions of the {1, I} filtration for i = 0..14, frozen from the first
# brute-force run (the same regression anchor idop.verify keeps).  Copied
# here so that an edit to the program cannot also edit the benchmark's
# reference.
FILTRATION_DIMS_ONE_I = [2, 7, 15, 26, 40, 57, 77, 100, 126, 155, 187, 222, 260, 301, 345]

# Bounds of the random operands, as in idop.sampling (so idop verify draws
# the same kind of operand): grades in [-3, 3], H-powers up to 3, e-unit
# indices up to 5, coefficients in +-{1..9}.
GRADE_BOUND = 3
H_POWER_BOUND = 3
EUNIT_BOUND = 5
COEFF_BOUND = 9

SMALL_COEFFS = (1, -1, 2, -2, 3, -3)
SIGNS = (1, -1)


def _coeff(rng: random.Random) -> int:
    return rng.randint(1, COEFF_BOUND) * rng.choice(SIGNS)


def _atom(rng: random.Random, eunit: bool) -> tuple:
    if eunit:
        return ("e", rng.randint(0, EUNIT_BOUND), rng.randint(0, EUNIT_BOUND))
    return ("v", rng.randint(-GRADE_BOUND, GRADE_BOUND), rng.randint(0, H_POWER_BOUND))


class _Deck:
    """Draws values without replacement from shuffled copies of `values`.

    Each value is as likely as with independent draws, but every stretch of
    draws holds each value about equally often, so the totals of a job (here
    the H-powers and e-units that set how large products get) vary little
    from seed to seed.
    """

    def __init__(self, values):
        self.values = list(values)
        self.left: list = []

    def draw(self, rng: random.Random):
        if not self.left:
            self.left = list(self.values)
            rng.shuffle(self.left)
        return self.left.pop()


def _up(atoms) -> int:
    """Largest grade an operator can raise polynomial degree by, from its atoms."""
    return max([0] + [a if tag == "v" else a - b for tag, a, b in atoms])


class Workload:
    """One named workload.  Subclasses fill `pool` with jobs of inputs."""

    name = ""
    pool_size = 1

    def __init__(self, lib, seed: int, tiny: bool = False, corrupt: bool = False):
        self.lib = lib
        self.tiny = tiny
        self.corrupt = corrupt
        self.pool = self.make_pool(random.Random(f"{self.name}:{seed}"))
        self._verified: dict = {}

    def make_pool(self, rng: random.Random) -> list:
        return [self.make_job(rng) for _ in range(self.pool_size)]

    def make_job(self, rng: random.Random) -> list:
        raise NotImplementedError

    def ops(self, j: int) -> list:
        """The operations of job j: zero-argument callables, run in order."""
        return [self.op(inp) for inp in self.pool[j % len(self.pool)]]

    def op(self, inp):
        raise NotImplementedError

    def check(self, j: int, k: int, out) -> bool:
        """Whether output `out` of operation k of job j is correct.

        The full check runs the first time a pool entry is seen; later jobs
        on the same entry must reproduce the verified output exactly.
        """
        key = (j % len(self.pool), k)
        if key in self._verified:
            return self.fingerprint(out) == self._verified[key]
        ok = self.verify(self.pool[key[0]][k], out)
        if ok:
            self._verified[key] = self.fingerprint(out)
        return ok

    def verify(self, inp, out) -> bool:
        raise NotImplementedError

    def fingerprint(self, out):
        """The part of an output compared between runs and between repeats."""
        return out


class Filtration(Workload):
    """bimodule_filtration_dims for {1, I} and for {e(0,0)} at the index cap.

    The rank-1 engine: Element1 products and RowReducer elimination.  The
    seed chooses the generator order and the generators' signs; neither
    changes the spans, so the reference dimensions hold for every job, and
    neither changes the amount of work, so jobs cost the same.
    """

    name = "filtration"

    def __init__(self, lib, seed, tiny=False, corrupt=False):
        self.i_max = 5 if tiny else 16  # 16 is idop's MAX_FILTRATION_INDEX
        super().__init__(lib, seed, tiny, corrupt)
        table = list(FILTRATION_DIMS_ONE_I)
        if corrupt:
            table[3] += 1
        self.table = table

    def make_pool(self, rng):
        """All 16 choices of order and signs, in a seeded order."""
        Element1 = self.lib.element.Element1
        choices = list(itertools.product((False, True), SIGNS, SIGNS, SIGNS))
        rng.shuffle(choices)
        pool = []
        for swap, s_one, s_i, s_e in choices:
            gens = [Element1({0: [s_one]}), Element1({1: [s_i]})]
            pool.append([(gens[::-1] if swap else gens, [Element1(fpart={(0, 0): s_e})])])
        return pool

    def op(self, inp):
        gens, e_gens = inp
        lib, i_max = self.lib, self.i_max

        def run():
            dims = lib.structure.bimodule_filtration_dims
            return (tuple(dims(gens, i_max)), tuple(dims(e_gens, i_max)))

        return run

    @staticmethod
    def layer_split(m: dict) -> list:
        core = m["oracle.RowReducer.add.self_s"] + m["element.Element1.mul.self_s"]
        core += sum(m[f"hpoly.{f}.self_s"] for f in ("shift", "mul", "evaluate"))
        return [
            (
                "Element1.mul (with the hpoly calls it makes) plus RowReducer.add "
                "take most of the traced time",
                core > 0.5 * m["trace.job_s"],
            ),
            ("no ElementN products", m["tensor.ElementN.mul.calls"] == 0),
        ]

    def verify(self, inp, out) -> bool:
        one_i, e00 = out
        n = self.i_max + 1
        # second difference 3 from the start: dim V_i = 2 + 5i + 3i(i-1)/2
        law = [2 + 5 * i + 3 * i * (i - 1) // 2 for i in range(n)]
        frozen = self.table[:n]
        closed_e00 = [(i + 1) * (i + 2) // 2 for i in range(n)]
        return (
            list(one_i[: len(frozen)]) == frozen
            and list(one_i) == law
            and list(e00) == closed_e00
        )


# Power templates: (rank, exponents, make_base).  make_base draws seeded
# coefficients and a factor assignment and returns the base expression.
# Exponents are fixed per job so that every job has the same mix of sizes;
# only coefficients and factor indices vary with the seed.


def _term(c: int, body: str) -> str:
    if c == 1:
        return f"+{body}"
    if c == -1:
        return f"-{body}"
    return f"{c:+d}*{body}"


def _rank1(rng):
    return _term(rng.choice(SMALL_COEFFS), "x") + _term(rng.choice(SMALL_COEFFS), "d")


def _rank2(rng):
    i, j = rng.sample((1, 2), 2)
    return (
        _term(rng.choice(SMALL_COEFFS), f"x_{i}")
        + _term(1, f"d_{j}")
        + _term(rng.choice(SMALL_COEFFS), f"I_{i}*e(0,0)_{j}")
    )


def _rank3(rng):
    i, j, l = rng.sample((1, 2, 3), 3)
    return (
        _term(1, f"x_{i}*d_{j}")
        + _term(rng.choice(SMALL_COEFFS), f"I_{l}")
        + _term(1, f"H_{i}")
    )


POWER_TEMPLATES = [
    (1, (5, 7, 9, 11), _rank1),
    (2, (3, 4, 5, 6, 7, 8), _rank2),
    (3, (2, 3, 4, 5, 6), _rank3),
]
TINY_EXPONENTS = {1: (3,), 2: (2,), 3: (2,)}


class Powers(Workload):
    """The `idop norm` path: parse_element then str, on seeded powers at ranks 1-3.

    ElementN products over atom pairs (atom_mul) with heavy pair reuse and
    growing coefficients; no elimination and no matrices.
    """

    name = "powers"
    pool_size = 64

    def make_job(self, rng):
        job = []
        for n, exponents, make_base in POWER_TEMPLATES:
            for k in TINY_EXPONENTS[n] if self.tiny else exponents:
                base = make_base(rng).lstrip("+")
                job.append((n, base, k, _random_poly(rng, n)))
        rng.shuffle(job)
        return job

    def op(self, inp):
        n, base, k, _ = inp
        text = f"({base})^{k}"
        lib = self.lib

        def run():
            e = lib.expr.parse_element(text, n)
            return e, str(e)

        return run

    @staticmethod
    def layer_split(m: dict) -> list:
        return [
            ("no RowReducer.add calls", m["oracle.RowReducer.add.calls"] == 0),
            (
                "no to_matrix calls",
                m["oracle.to_matrix.calls"] == 0 and m["oracle.to_matrix_n.calls"] == 0,
            ),
        ]

    def verify(self, inp, out) -> bool:
        n, base, k, poly = inp
        e, text = out
        parse, apply_n = self.lib.expr.parse_element, self.lib.tensor.apply_n
        # Faithful action: a^k applied once equals a applied k times.
        a = parse(base, n)
        want = dict(poly)
        for _ in range(k):
            want = apply_n(a, want)
        if self.corrupt:
            first = next(iter(want), (0,) * n)
            want[first] = want.get(first, 0) + 1
        return apply_n(e, poly) == want and read_printed(text, n) == e.terms

    def fingerprint(self, out):
        return out[1]


_TERM_SPLIT = re.compile(r" ([+-]) ")
_GRADED = re.compile(r"^([IdH])(?:_(\d+))?(?:\^(\d+))?$")
_EUNIT = re.compile(r"^e\((\d+),(\d+)\)(?:_(\d+))?$")


def read_printed(text: str, n: int) -> dict:
    """The term map {atom tuple: coefficient} that a printed operator denotes.

    Reads the printed form directly (terms `c*I_1^2*H_1*e(0,1)_2` joined by
    ` + ` and ` - `), without idop's parser or product, so the printer is
    checked against the element's own canonical terms.
    """
    pieces = _TERM_SPLIT.split(text)
    signs = [1] + [1 if op == "+" else -1 for op in pieces[1::2]]
    terms: dict = {}
    for sign, term in zip(signs, pieces[0::2]):
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        factors = term.split("*")
        coeff = Fraction(1)
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        key = [["v", 0, 0] for _ in range(n)]
        for factor in factors:
            m = _EUNIT.match(factor)
            if m:
                key[int(m.group(3) or 1) - 1] = ["e", int(m.group(1)), int(m.group(2))]
                continue
            m = _GRADED.match(factor)
            if not m:
                raise ValueError(f"unreadable factor {factor!r} in {term!r}")
            gen, f, power = m.group(1), int(m.group(2) or 1) - 1, int(m.group(3) or 1)
            if gen == "H":
                key[f][2] = power
            else:
                key[f][1] = power if gen == "I" else -power
        terms[tuple(tuple(a) for a in key)] = sign * coeff
    return {} if text == "0" else terms


def _random_poly(rng, n: int) -> dict:
    poly: dict = {}
    while len(poly) < 3:
        poly[tuple(rng.randint(0, 4) for _ in range(n))] = _coeff(rng)
    return poly


# Verdict kinds of the checks workload: (kind, rank, window N).
CHECK_KINDS = [
    ("consistent", 1, 24),
    ("consistent", 2, 8),
    ("consistent", 3, 5),
    ("socle", 2, None),
    ("project_bn", 2, None),
    ("census", 2, None),
]


class Checks(Workload):
    """A stream of verification verdicts whose answer is known to be True.

    Operand products against the truncated-matrix referee at ranks 1-3,
    socle monotonicity under two-sided Weyl words, quotient multiplicativity
    and the census bound, drawn the way `idop verify` draws them.  Small
    operands and little atom-pair reuse.
    """

    name = "checks"
    pool_size = 16
    per_kind = 40

    def make_pool(self, rng):
        # graded/e-unit atoms 7:3 and H-powers 0..3, as idop.sampling draws them
        self._eunit = _Deck([False] * 7 + [True] * 3)
        self._h_power = _Deck(range(H_POWER_BOUND + 1))
        return super().make_pool(rng)

    def _tensor_atom(self, rng):
        if self._eunit.draw(rng):
            return _atom(rng, True)
        return ("v", rng.randint(-GRADE_BOUND, GRADE_BOUND), self._h_power.draw(rng))

    def make_job(self, rng):
        job = []
        for kind, n, window in CHECK_KINDS:
            for k in range(2 if self.tiny else self.per_kind):
                # Term counts (1-3 each, as idop.sampling draws them) cycle
                # through all nine pairs instead of being drawn, so that the
                # mix of large and small products, which sets the tail, is
                # the same for every seed.
                sizes = (1 + k % 3, 1 + k // 3 % 3)
                job.append(self._draw(rng, kind, n, window, sizes))
        rng.shuffle(job)
        return job

    def _draw(self, rng, kind, n, window, sizes):
        size_a, size_b = sizes
        if kind == "consistent":
            # Reject pairs with an empty validity window here, in set-up, so
            # that a ValueError in the timed loop is a real failure.
            while True:
                a, ua = self._operand(rng, n, size_a)
                b, ub = self._operand(rng, n, size_b)
                if ua + ub < window:
                    return (kind, a, b, window)
        a = self._operand(rng, n, size_a)[0]
        if kind == "socle":
            return (kind, _weyl_word(rng, n), a, _weyl_word(rng, n))
        if kind == "project_bn":
            return (kind, a, self._operand(rng, n, size_b)[0])
        return (kind, a)

    def _operand(self, rng, n, size):
        """A nonzero random operand of rank n and its degree-raising bound.

        At rank n >= 2 it has `size` terms before equal keys merge; at rank 1
        the atom counts are drawn as idop.sampling draws them.
        """
        lib = self.lib
        while True:
            if n == 1:
                atoms = [_atom(rng, False) for _ in range(rng.randint(0, 3))]
                atoms += [_atom(rng, True) for _ in range(rng.randint(0, 2))]
                graded: dict = {}
                fpart: dict = {}
                for tag, a, b in atoms:
                    c = _coeff(rng)
                    if tag == "v":
                        poly = graded.setdefault(a, [0] * (H_POWER_BOUND + 1))
                        poly[b] += c
                    else:
                        fpart[(a, b)] = fpart.get((a, b), 0) + c
                elem = lib.element.Element1(graded, fpart)
                keys = list(elem.atoms())
                if keys:
                    return elem, _up(atom for atom, _ in keys)
                continue
            terms: dict = {}
            for _ in range(size):
                key = tuple(self._tensor_atom(rng) for _ in range(n))
                terms[key] = terms.get(key, 0) + _coeff(rng)
            terms = {k: c for k, c in terms.items() if c}
            if terms:
                return lib.tensor.ElementN(n, terms), _up(a for k in terms for a in k)

    def op(self, inp):
        kind = inp[0]
        lib = self.lib
        if kind == "consistent":
            _, a, b, window = inp
            return lambda: lib.oracle.consistent(a, b, window)
        if kind == "socle":
            _, u_word, a, v_word = inp

            def socle():
                n = a.n
                prod = _build_word(lib, u_word, n) * a * _build_word(lib, v_word, n)
                if prod.is_zero():
                    return True
                return lib.structure.socle_level(prod) <= lib.structure.socle_level(a)

            return socle
        if kind == "project_bn":
            _, a, b = inp
            pb = lib.tensor

            return lambda: pb.project_bn(a * b) == pb.project_bn(a) * pb.project_bn(b)
        _, a = inp

        def census():
            labels = lib.structure.census(a)
            return bool(labels) and all(
                len(t) == a.n and set(t) <= {"A", "F", "L"} for t in labels
            )

        return census

    @staticmethod
    def layer_split(m: dict) -> list:
        matrix = sum(
            m[f"oracle.{f}.self_s"]
            for f in ("to_matrix", "to_matrix_n", "TruncMatrix.matmul", "consistent")
        )
        return [
            ("the oracle's matrix layers take most of the traced time", matrix > 0.5 * m["trace.job_s"])
        ]

    def verify(self, inp, out) -> bool:
        expected = not (self.corrupt and inp[0] == "census")
        return out is expected


def _weyl_word(rng, n: int) -> list:
    """A random word in x_i and d_i, as (generator, factor) letters."""
    return [(rng.choice("xd"), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]


def _build_word(lib, word, n: int):
    out = lib.tensor.ElementN.one(n)
    for name, factor in word:
        out = out * lib.tensor.lift(factor, lib.element.Element1.from_generator(name), n)
    return out


WORKLOADS = {w.name: w for w in (Filtration, Powers, Checks)}
