"""The benchmark's three workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up), runs one operation per call to :meth:`run` (the timed part) and
judges each result in :meth:`check` (never timed).  Inputs are cycled in
rounds of fixed composition, so every round has the same mix of kinds.

- witness: certificate requests through ``cli.main`` in-process.
- verify: ``cli.main(["verify", path])`` on fixture files written at set-up.
- algebra: large elements through the Python API.

A verdict is ``"ok"``, ``"failed"`` or ``"known"``: the last marks an
operation that still shows a documented defect of the library (see
KNOWN_DEFECTS) exactly as it was recorded, so the defect stays visible
without being mistaken for a new failure.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass, field

import oracle

# The ROADMAP profile base n = [x, y] and its certificate.
N_X = "{00->01,01->00,1->1}"
N_Y = "{01->10,10->01,00->00,11->11}"
N_CERT = {"kind": "commutator_word", "arity": 2, "factors": [{"x": N_X, "y": N_Y}]}

# Malformed certificates that the verifier should reject with exit code 2 but
# does not yet; each maps to the outcome it has instead.
KNOWN_DEFECTS = {
    "exp_1.7": "exit 0",
    "exp_-1.2": "exit 0",
    "exp_string": "exit 0",
    "exp_true": "exit 0",
    "witness_is_commutator_word": "AttributeError",
}


def call_cli(lib, argv) -> tuple[int, str, str]:
    """Run ``cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Workload:
    """Common shape: `items` is cycled in rounds of `round_size`."""

    items: list = field(default_factory=list)
    round_size: int = 1

    def output(self, item, result) -> bytes:
        """The operation's exact output, as hashed into the digest."""
        if isinstance(result, BaseException):
            return repr(result).encode()
        code, out, err = result
        return f"{code}\n{out}\n{err}".encode()

    def size(self, item, result) -> int:
        """Bytes of the certificate the operation emits or reads."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# witness


@dataclass
class WitnessItem:
    kind: str           # "monolith" or "simple"
    full: bool          # full-union branch
    argv: list
    a: object
    b: object


class Witness(Workload):
    """Certificate requests: monolith and simple witnesses in both branches."""

    # A round: the median and the 90th percentile both fall inside the
    # proper-union simple witnesses, the kind with the most samples; the
    # full-union simple witness is the tail beyond them.
    ROUND = [("monolith", False), ("monolith", True)] \
        + [("simple", False)] * 17 + [("simple", True)]
    ROUNDS = 20

    def __init__(self, lib, seed: int, workdir):
        super().__init__(round_size=len(self.ROUND))
        self.lib = lib
        rng = random.Random(f"witness:{seed}")
        self.n_cert = workdir / "ncert.json"
        self.n_cert.write_text(json.dumps(N_CERT))
        x, y = lib.literals.parse_element(N_X), lib.literals.parse_element(N_Y)
        n_simple = str(lib.witnesses.commutator(x, y))
        for _ in range(self.ROUNDS):
            order = list(self.ROUND)
            rng.shuffle(order)
            self.items += [self._request(rng, kind, full, n_simple) for kind, full in order]

    def _request(self, rng, kind, full, n_simple) -> WitnessItem:
        corpus = self.lib.corpus
        a, ya, b, yb = corpus.random_witness_input(rng, 2, full_union=full)
        if kind == "monolith":
            n = str(corpus.random_element(rng, 2, 4, nontrivial=True))
            argv = ["monolith-witness", str(a), str(ya), str(b), str(yb), n, "--json"]
        else:
            argv = ["simple-witness", str(a), str(ya), str(b), str(yb), n_simple,
                    "--n-cert", str(self.n_cert), "--json"]
        return WitnessItem(kind, full, argv, a, b)

    def run(self, item):
        return call_cli(self.lib, item.argv)

    def check(self, item, result) -> str:
        code, out, _err = result
        if code != 0:
            return "failed"
        obj = json.loads(out)
        target = self.lib.witnesses.commutator(item.a, item.b)
        value = self.lib.witnesses.verify_certificate(obj)
        word = obj if item.kind == "monolith" else obj["witness"]
        bound = 16 if item.kind == "simple" and item.full else 8
        expected_kind = "normal_word" if item.kind == "monolith" else "simple_witness"
        ok = (obj["kind"] == expected_kind and value == target
              and word["target"] == str(target) and len(word["letters"]) <= bound)
        return "ok" if ok else "failed"

    def size(self, item, result) -> int:
        if isinstance(result, BaseException):
            return 0
        return len(result[1].encode())


# ---------------------------------------------------------------------------
# verify


@dataclass
class VerifyItem:
    kind: str           # source and mutation, e.g. "monolith/drop_letter"
    path: str
    expected: int       # exit code a sound verifier gives
    size: int
    defect: str = ""    # key into KNOWN_DEFECTS


class Verify(Workload):
    """``verify`` on valid, mutated and malformed certificate files.

    Valid files come from the CLI builders; each mutation is kept only when
    the pointwise oracle shows that the mutated certificate no longer
    evaluates to its claim, so its expected exit code (4) is known without
    the verifier under test.

    Each fixture draws from its own rng, named by the seed, its source and
    its index, and chooses its mutation with another.  So the inputs of one
    fixture do not depend on how many draws the builder's output for an
    earlier fixture took, and a builder-only change leaves the other
    fixtures as they were.
    """

    MONOLITH = 6           # sources; half proper, half full union
    SIMPLE = 1             # sources per branch
    DERIVED = 30
    CLAIM1 = 12
    CLAIM2 = 3             # each gives three certificates
    LONG = 24              # commutator words of elements with >= LONG_PAIRS pairs
    LONG_PAIRS = 200

    def __init__(self, lib, seed: int, workdir):
        super().__init__()
        self.lib = lib
        self.seed = seed
        self.dir = workdir
        self.points = oracle.sample_points(self._rng("points", 0), 16, 256)
        self.n_cert = workdir / "ncert.json"
        self.n_cert.write_text(json.dumps(N_CERT))
        corpus = lib.corpus
        monoliths = [self._with_mutation("monolith", i,
                                         lambda rng: self._monolith(rng, i % 2 == 1),
                                         self._word_mutations)
                     for i in range(self.MONOLITH)]
        self._malformed_exponents(monoliths[0])
        x, y = lib.literals.parse_element(N_X), lib.literals.parse_element(N_Y)
        n = str(lib.witnesses.commutator(x, y))
        for full in (False, True):
            for i in range(self.SIMPLE):
                self._with_mutation("simple", 2 * i + full,
                                    lambda rng: self._simple(rng, full, n),
                                    self._simple_mutations)
        derived = [self._with_mutation("derived", i, self._derived, self._factor_mutations)
                   for i in range(self.DERIVED)]
        wrapped = {"kind": "simple_witness", "arity": 2, "witness": derived[0],
                   "conjugators": []}
        self._add("malformed/witness_is_commutator_word", wrapped, 2,
                  "witness_is_commutator_word")

        for i in range(self.CLAIM1):
            self._with_mutation("claim1", i, self._claim1, self._factor_mutations)
        for i in range(self.CLAIM2):
            rng = self._rng("claim2", i)
            x = corpus.random_element(rng, 2, 4, nontrivial=True)
            y = corpus.random_element(rng, 2, 4, nontrivial=True)
            g_path = workdir / "gcert.json"
            g_path.write_text(json.dumps({"kind": "commutator_word", "arity": 2,
                                          "factors": [{"x": str(x), "y": str(y)}]}))
            g = lib.witnesses.commutator(x, y)
            out = self._build(["claim2", str(g), "--cert", str(g_path), "--json"])
            for cert in out["certs"]:
                self._add("claim2/valid", cert, 0)
        # Consecutive files share an element, which halves the set-up cost.
        y = self._long_element(0)
        for i in range(1, self.LONG + 1):
            x, y = y, self._long_element(i)
            obj = {"kind": "commutator_word", "arity": 2,
                   "factors": [{"x": str(x), "y": str(y)}],
                   "target": str(lib.witnesses.commutator(x, y))}
            self._add("long/valid", obj, 0)
        self.round_size = len(self.items)

    # -- construction helpers

    def _rng(self, source: str, index: int) -> random.Random:
        return random.Random(f"verify:{self.seed}:{source}:{index}")

    def _build(self, argv) -> dict:
        code, out, err = call_cli(self.lib, argv)
        if code != 0:
            raise RuntimeError(f"fixture build failed ({code}): {argv[0]}: {err.strip()}")
        return json.loads(out)

    def _add(self, kind, obj, expected, defect=""):
        text = json.dumps(obj)
        path = self.dir / f"cert{len(self.items):03d}.json"
        path.write_text(text)
        self.items.append(VerifyItem(kind, str(path), expected, len(text.encode()), defect))

    def _monolith(self, rng, full: bool) -> dict:
        corpus = self.lib.corpus
        while True:
            a, ya, b, yb = corpus.random_witness_input(rng, 2, full_union=full)
            n = corpus.random_element(rng, 2, 4, nontrivial=True)
            obj = self._build(["monolith-witness", str(a), str(ya), str(b), str(yb), str(n),
                               "--json"])
            if full or sorted(l["exp"] for l in obj["letters"]) == [-1, -1, 1, 1]:
                return obj

    def _simple(self, rng, full: bool, n: str) -> dict:
        a, ya, b, yb = self.lib.corpus.random_witness_input(rng, 2, full_union=full)
        return self._build(["simple-witness", str(a), str(ya), str(b), str(yb), n,
                            "--n-cert", str(self.n_cert), "--json"])

    def _derived(self, rng) -> dict:
        g = self.lib.corpus.random_element(rng, 2, 5, nontrivial=True)
        w = self.lib.corpus.random_clopen(rng, 2, 5)
        return self._build(["derived-conj", str(g), str(w), "--json"])

    def _claim1(self, rng) -> dict:
        words = self.lib.corpus.random_code(rng, 2, 4)
        while len(words) < 4:
            words = self.lib.corpus.random_code(rng, 2, 4)
        return self._build(["claim1", *(f"[{w}]" for w in rng.sample(words, 3)), "--json"])

    def _long_element(self, index: int):
        corpus = self.lib.corpus
        rng = self._rng("long", index)
        g = corpus.random_element(rng, 2, 6)
        while len(g.pairs) < self.LONG_PAIRS:
            g = g * corpus.random_element(rng, 2, 6)
        return g

    def _with_mutation(self, source, index, build, candidates) -> dict:
        """Add a valid file from build(rng) and one seeded mutation of it
        that the oracle shows must be rejected.  A source none of whose
        mutations the oracle can confirm is replaced by a fresh one."""
        rng = self._rng(source, index)
        choose = self._rng(f"{source}/mutation", index)
        while True:
            obj = build(rng)
            options = list(candidates(obj))
            choose.shuffle(options)
            for name, mutated, claimed, actual in options:
                if oracle.differ(claimed, actual, self.points):
                    self._add(f"{source}/valid", obj, 0)
                    self._add(f"{source}/{name}", mutated, 4)
                    return obj

    @staticmethod
    def _copy(obj):
        return json.loads(json.dumps(obj))

    def _word_mutations(self, obj, wrap=lambda word: word):
        """Flip an exponent or drop a letter of a normal word."""
        target = [oracle.Map.parse(obj["target"])]
        for i in range(len(obj["letters"])):
            flipped = self._copy(obj)
            flipped["letters"][i]["exp"] *= -1
            yield "flip_exponent", wrap(flipped), oracle.normal_word_maps(flipped), target
            dropped = self._copy(obj)
            del dropped["letters"][i]
            yield "drop_letter", wrap(dropped), oracle.normal_word_maps(dropped), target

    def _factor_mutations(self, obj):
        """Drop a factor of a commutator word."""
        target = [oracle.Map.parse(obj["target"])]
        for i in range(len(obj["factors"])):
            dropped = self._copy(obj)
            del dropped["factors"][i]
            yield "drop_factor", dropped, oracle.commutator_word_maps(dropped), target

    def _simple_mutations(self, obj):
        """Empty one conjugator certificate, or flip an exponent of the word."""
        for i, letter in enumerate(obj["witness"]["letters"]):
            emptied = self._copy(obj)
            emptied["conjugators"][i]["factors"] = []
            yield "empty_conjugator", emptied, [oracle.Map.parse(letter["conj"])], []

        def wrap(word):
            out = self._copy(obj)
            out["witness"] = word
            return out

        for name, mutated, claimed, actual in self._word_mutations(obj["witness"], wrap):
            if name == "flip_exponent":
                yield name, mutated, claimed, actual

    def _malformed_exponents(self, obj):
        """Exponents that are not the integers +1 or -1, each on a letter
        whose sign it would truncate to."""
        for defect, value, sign in (("exp_1.7", 1.7, 1), ("exp_-1.2", -1.2, -1),
                                    ("exp_string", "1", 1), ("exp_true", True, 1)):
            bad = self._copy(obj)
            i = [l["exp"] for l in bad["letters"]].index(sign)
            bad["letters"][i]["exp"] = value
            self._add(f"malformed/{defect}", bad, 2, defect)

    # -- operation

    def run(self, item):
        return call_cli(self.lib, ["verify", item.path])

    def check(self, item, result) -> str:
        if isinstance(result, BaseException):
            seen = type(result).__name__
        elif result[0] == item.expected:
            return "ok"
        else:
            seen = f"exit {result[0]}"
        return "known" if item.defect and seen == KNOWN_DEFECTS[item.defect] else "failed"

    def size(self, item, result) -> int:
        return item.size


# ---------------------------------------------------------------------------
# algebra


@dataclass
class AlgebraItem:
    word: list          # generator indices, composed left to right
    region: object      # ClopenSet
    points: list


class Algebra(Workload):
    """Large elements: compose a word of random depth-6 generators, then
    check inverse, literal round trip, image round trip and the wandering
    disjointness check on a seeded region."""

    WORD = 100
    WINDOW = 8
    # Strata of generator size (lowest and highest pair count) and how many
    # of the pool's 1000 generators fall in each, in proportion to 5000 draws
    # of corpus.random_element at depth 6.  Products grow with their
    # factors, so a pool drawn freely would make a seed's whole run a tenth
    # faster or slower; a fixed size profile leaves only the operations'
    # own variation.
    STRATA = ((1, 1, 281), (2, 2, 284), (3, 6, 123), (7, 10, 124), (11, 14, 88),
              (15, 19, 64), (20, 10**6, 36))
    ITEMS = 500

    def __init__(self, lib, seed: int, workdir):
        super().__init__(round_size=10)
        self.lib = lib
        rng = random.Random(f"algebra:{seed}")
        corpus = lib.corpus
        strata = [[] for _ in self.STRATA]
        while any(len(s) < quota for s, (_, _, quota) in zip(strata, self.STRATA)):
            g = corpus.random_element(rng, 2, 6)
            for s, (low, high, quota) in zip(strata, self.STRATA):
                if low <= len(g.pairs) <= high and len(s) < quota:
                    s.append(g)
        self.gens = [g for s in strata for g in s]
        self._maps = {}
        for _ in range(self.ITEMS):
            word = [rng.randrange(len(self.gens)) for _ in range(self.WORD)]
            region = corpus.random_clopen(rng, 2, 6)
            self.items.append(AlgebraItem(word, region, oracle.sample_points(rng, 4, 1500)))

    def run(self, item):
        lib = self.lib
        gens = self.gens
        g = gens[item.word[0]]
        for i in item.word[1:]:
            g = g * gens[i]
        ident = g * g.inverse()
        again = lib.literals.parse_element(str(g))
        back = g.inverse().image(g.image(item.region))
        w, _z = lib.compression.wandering_witness(item.region)
        images = [(w ** m).image(item.region) for m in range(-self.WINDOW, self.WINDOW + 1)]
        disjoint = all(images[i].disjoint(images[j])
                       for i in range(len(images)) for j in range(i + 1, len(images)))
        return g, ident, again, back, images, disjoint

    def _gen_map(self, i):
        if i not in self._maps:
            self._maps[i] = oracle.Map.parse(str(self.gens[i]))
        return self._maps[i]

    def check(self, item, result) -> str:
        g, ident, again, back, images, disjoint = result
        codes = [im.code for im in images]
        ok = (ident.pairs == (("", ""),) and again == g and back == item.region
              and disjoint
              and all(oracle.disjoint(codes[i], codes[j])
                      for i in range(len(codes)) for j in range(i + 1, len(codes))))
        word = [self._gen_map(i) for i in item.word]
        ok = ok and oracle.agree([oracle.Map(g.pairs)], word, item.points)
        return "ok" if ok else "failed"

    def output(self, item, result) -> bytes:
        if isinstance(result, BaseException):
            return repr(result).encode()
        g, ident, again, back, images, disjoint = result
        parts = [str(g), str(ident), str(back), *(str(im) for im in images), str(disjoint)]
        return "\n".join(parts).encode()

    def size(self, item, result) -> int:
        if isinstance(result, BaseException):
            return 0
        return len(str(result[0]).encode())


WORKLOADS = {"witness": Witness, "verify": Verify, "algebra": Algebra}
