"""Independent pointwise evaluator for the benchmark's own checks.

Nothing here uses the library: element literals are parsed by hand and
applied pair by pair to finite prefixes of points of the Cantor space, the
way the test suite's oracles do.  A finite prefix x of a point is enough to
know a finite prefix of its image, so two elements that give images
disagreeing inside their common known prefix are certainly different.  The
benchmark uses this to confirm that a mutated certificate must be rejected
without asking the verifier it measures.
"""

import random


class Unknown(Exception):
    """A sample prefix was too short to evaluate a map on it."""


def parse_pairs(text: str) -> list[tuple[str, str]]:
    """Pairs of an element literal `{d->r,...}` (`e` is the empty word)."""
    body = "".join(text.split())[1:-1]
    return [tuple("" if w == "e" else w for w in tok.split("->"))
            for tok in body.split(",")]


class Map:
    """A prefix map as a lookup table from domain words to range words."""

    def __init__(self, pairs):
        self.table = dict(pairs)
        self.depth = max(len(d) for d in self.table)

    @classmethod
    def parse(cls, text: str) -> "Map":
        return cls(parse_pairs(text))

    def inverse(self) -> "Map":
        return Map((r, d) for d, r in self.table.items())

    def __call__(self, point: str) -> str:
        for i in range(min(self.depth, len(point)) + 1):
            r = self.table.get(point[:i])
            if r is not None:
                return r + point[i:]
        raise Unknown(point)


def sample_points(rng: random.Random, count: int, length: int) -> list[str]:
    return [format(rng.getrandbits(length), f"0{length}b") for _ in range(count)]


def apply_all(maps, point: str) -> str:
    """Apply maps right to left: apply_all([f, g], x) = f(g(x))."""
    for f in reversed(maps):
        point = f(point)
    return point


def normal_word_maps(obj: dict) -> list[Map]:
    """The factors of a normal_word object as maps, leftmost first."""
    base = Map.parse(obj["base"])
    base_inv = base.inverse()
    out = []
    for letter in obj["letters"]:
        c = Map.parse(letter["conj"])
        out += [c, base if letter["exp"] == 1 else base_inv, c.inverse()]
    return out


def commutator_word_maps(obj: dict) -> list[Map]:
    """The factors of a commutator_word object as maps, leftmost first."""
    out = []
    for f in obj["factors"]:
        x, y = Map.parse(f["x"]), Map.parse(f["y"])
        out += [x, y, x.inverse(), y.inverse()]
    return out


def compare(left: list[Map], right: list[Map], points) -> tuple[int, bool]:
    """(points evaluated, whether the products differ at one of them).

    A point whose prefix runs out before a map can read it is skipped.
    """
    evaluated = 0
    for x in points:
        try:
            a, b = apply_all(left, x), apply_all(right, x)
        except Unknown:
            continue
        evaluated += 1
        m = min(len(a), len(b))
        if a[:m] != b[:m]:
            return evaluated, True
    return evaluated, False


def differ(left: list[Map], right: list[Map], points) -> bool:
    """True when the products are shown to differ at a sample point."""
    return compare(left, right, points)[1]


def agree(left: list[Map], right: list[Map], points) -> bool:
    """True when the products agree on every sample point they reach, and
    they reach at least one."""
    evaluated, differs = compare(left, right, points)
    return evaluated > 0 and not differs


def disjoint(code_a, code_b) -> bool:
    """Disjointness of two unions of cylinders: no word of one is a prefix
    of a word of the other."""
    return not any(a.startswith(b) or b.startswith(a) for a in code_a for b in code_b)
