"""Independent oracles for the test suite.

These deliberately avoid the library's own composition/reduction/boolean
machinery: maps are evaluated pair-by-pair on explicit finite words,
clopen sets are compared by brute-force membership of every word of a
given depth, common refinements come from a nested loop over both codes
(`refine_oracle`, and `refine_table` for the unreduced table of a
product), and length-lexicographic order is a plain `lenlex` sort key.
Tests check library results against these.  The exceptions are the plain
versions that faster library paths are checked against:
`commutator_fold`, the unmemoised product of a commutator word;
`merge_siblings_worklist`, the sibling merge that checks a family once per
member; `commutator_three_reduce` and `normal_word_fold`, which reduce
after every single composition; `split_words_resorting`, which sorts
again after every split; `compose_full_scan`, the product through
`refine_table` and a sibling merge that scans the whole table
(`reduce_table`);
`parse_element_per_token`, the element parser that reads the literal
token by token; `verify_parse_target`, the checker that parses every
literal, the target first, before it evaluates; and two constructions
built directly where the library goes through shared code:
`transporter_zip`, whose pairing zips the source code with the split
target words, and `claim1_swap_patch`, which patches the swap of the two
regions without `_certified_patch`.  `patch_pairwise` and
`sigma_swap_two_pass` are the patch and swap that compute each image with
`image` apart from the pieces of the same restriction, and the patch
checks its regions and images pair by pair; `moved_cylinder_pairs` takes
the first moved pair from the sorted `pairs`, and `decompose2_three_pass`
computes the swap, the image of its region and their union in three
separate calls.  `claim3_targets_disjoint_checks` searches claim 3's
targets testing the cylinders themselves for disjointness and room, where
the library compares their words.  The certificate writers are checked against
`json.dumps(obj, indent=2, sort_keys=True)` of the objects that
`normal_word_to_obj`, `commutator_word_to_obj` and `simple_witness_to_obj`
build, one dict per certificate; `simple_witness_to_inline_obj` builds a
simple witness as it was written before the `elements` list, which the
readers still take.
"""

import itertools
import json

from cantorwit.clopen import (canonicalize, cylinder, lenlex_sorted, letters, merge_siblings,
                             split_words)
from cantorwit.compression import transporter
from cantorwit.errors import ArityMismatchError, ParseError, PreconditionError, VerificationError
from cantorwit.literals import _parse_word, _strip, parse_element
from cantorwit.prefixmap import (PrefixMap, identity, matched_pairs, onto_transporter, patch,
                                 sigma_swap)
from cantorwit.witnesses import (MAX_REFERENCED_TEXT, Certified, CommutatorWord, Decomposition,
                                 NormalWord, SimpleWitness, commutator, derived_conjugator)

ALPHABET = "0123456789"


def all_words(arity: int, depth: int) -> list[str]:
    return ["".join(p) for p in itertools.product(ALPHABET[:arity], repeat=depth)]


def complete_codes(arity: int, max_words: int) -> set[tuple[str, ...]]:
    """Every complete prefix code of at most max_words words, each as its
    sorted tuple of words: the codes that splitting words one at a time
    reaches from the empty word."""
    codes = frontier = {("",)}
    while frontier:
        frontier = {tuple(sorted(code[:i] + code[i + 1:] + tuple(w + c for c in letters(arity))))
                    for code in frontier if len(code) + arity - 1 <= max_words
                    for i, w in enumerate(code)}
        codes = codes | frontier
    return codes


def small_elements(arity: int, max_pairs: int) -> dict[int, set]:
    """Every reduced element with at most max_pairs pairs, by its number of
    pairs.  Each is the reduction of a pairing of two complete codes of equal
    size, and its own reduced pairs are one such pairing, so pairing every
    two codes of at most max_pairs words every way finds all of them."""
    codes = complete_codes(arity, max_pairs)
    by_size: dict[int, set] = {}
    for dom in codes:
        for ran in codes:
            if len(ran) == len(dom):
                for image in itertools.permutations(ran):
                    g = PrefixMap.from_pairs(list(zip(dom, image)), arity)
                    by_size.setdefault(len(g.pairs), set()).add(g)
    return by_size


def apply_pairs(pairs, word: str) -> str:
    """Evaluate a prefix map given as raw pairs on a long-enough word."""
    for d, r in pairs:
        if word.startswith(d):
            return r + word[len(d):]
    raise AssertionError(f"word {word!r} not covered by {pairs}")


def member(code, word: str) -> bool:
    """Cylinder membership of a word at least as deep as every code word."""
    return any(word.startswith(c) for c in code)


def max_word_len(*codes) -> int:
    return max((len(w) for code in codes for w in code), default=0)


def is_complete_code(words, arity: int) -> bool:
    """Brute-force complete prefix code test: every word at the maximum
    depth has exactly one prefix in the list (a duplicate counts twice)."""
    depth = max_word_len(words)
    return all(sum(w.startswith(c) for c in words) == 1 for w in all_words(arity, depth))


def lenlex(word: str) -> tuple[int, str]:
    """Sort key for the length-lexicographic order."""
    return (len(word), word)


def refine_oracle(xs, ys):
    """Nested-loop common refinement of two antichains: (x, y, w) for every
    prefix-comparable pair, w the longer word."""
    for x in xs:
        for y in ys:
            if x.startswith(y):
                yield x, y, x
            elif y.startswith(x):
                yield x, y, y


def maps_equal(g, h) -> bool:
    """Brute-force equality of two prefix maps via pointwise evaluation."""
    depth = max(max_word_len([d for d, _ in g.pairs], [d for d, _ in h.pairs]), 1)
    return all(apply_pairs(g.pairs, w) == apply_pairs(h.pairs, w)
               for w in all_words(g.arity, depth))


def commutator_fold(factors, arity: int):
    """The product of commutator(x, y) over the factors, left to right."""
    acc = identity(arity)
    for x, y in factors:
        acc = acc * commutator(x, y)
    return acc


def merge_siblings_worklist(table, arity: int):
    """Merge full sibling families in place, starting from every word and
    checking the whole family again for each member popped."""
    alpha = letters(arity)
    work = list(table)
    while work:
        d = work.pop()
        r = table.get(d)
        if not d or not r or d[-1] != r[-1]:
            continue
        p, q = d[:-1], r[:-1]
        if all(table.get(p + c) == q + c for c in alpha):
            for c in alpha:
                del table[p + c]
            table[p] = q
            work.append(p)
    return table


def commutator_three_reduce(x, y):
    """[x, y] as three reduced products."""
    return x * y * x.inverse() * y.inverse()


def normal_word_fold(word):
    """A normal word's value, reducing after every composition."""
    acc = identity(word.base.arity)
    for conj, exp in word.letters:
        acc = acc * (conj * (word.base if exp == 1 else word.base.inverse()) * conj.inverse())
    return acc


def split_words_resorting(words, size: int, arity: int) -> tuple:
    """Split the length-lexicographically last word until there are `size`
    words, sorting after every split."""
    out = sorted(words, key=lenlex)
    while len(out) < size:
        w = out.pop()
        out.extend(w + c for c in letters(arity))
        out.sort(key=lenlex)
    return tuple(out)


def view(table: dict) -> tuple:
    """A word table as `refine` takes it: with its keys sorted."""
    return table, sorted(table)


def refine_table(g_pairs, h_pairs) -> dict:
    """The unreduced table of g·h built from `refine_oracle` over h's range
    code and g's domain code."""
    h_inv = {r: d for d, r in h_pairs}
    g = dict(g_pairs)
    return {h_inv[x] + w[len(x):]: g[y] + w[len(y):] for x, y, w in refine_oracle(h_inv, g)}


def reduce_table(table, arity: int) -> tuple:
    """The reduced pairs of a word table: the library's sibling merge
    started from every piece, in place, then length-lexicographic order."""
    table = merge_siblings(table, arity)
    return tuple([(d, table[d]) for d in lenlex_sorted(table)])


def compose_full_scan(first, *rest):
    """first·rest[0]·…: `refine_table` left to right, then one sibling
    merge started from every piece of the whole table."""
    table = dict(first.pairs)
    for g in rest:
        table = refine_table(table, g.pairs)
    return PrefixMap.from_pairs(reduce_table(table, first.arity), first.arity)


def parse_element_per_token(text: str, arity: int = 2) -> PrefixMap:
    """An element literal parsed token by token: split at commas, each
    token at its first '->', each word checked on its own."""
    s = _strip(text)
    if not s.startswith("{") or not s.endswith("}"):
        raise ParseError("element literal must be braced like {0->1,1->0}", 0)
    body = s[1:-1]
    if not body:
        raise ParseError("an element needs at least one pair", 1)
    pairs = []
    pos = 1
    for tok in body.split(","):
        if "->" not in tok:
            raise ParseError(f"pair {tok!r} is missing '->'", pos)
        d, _, r = tok.partition("->")
        pairs.append((_parse_word(d, pos), _parse_word(r, pos + len(d) + 2)))
        pos += len(tok) + 1
    try:
        return PrefixMap.from_pairs(pairs, arity)
    except (PreconditionError, ArityMismatchError) as exc:
        raise ParseError(str(exc)) from exc


JSON_TYPE_NAMES = {dict: "object", list: "array", str: "string", int: "number",
                   float: "number", bool: "boolean", type(None): "null"}


def verify_parse_target(obj, arity: int = 2) -> PrefixMap:
    """A certificate checked in reading order: each object's target, then
    its other literals, all parsed through one table before anything is
    evaluated; then the value is compared with the target as elements.
    Same errors and messages as the library checker."""
    table: dict = {}

    def arity_of(o, default):
        k = o.get("arity", default)
        if type(k) is not int:
            raise ParseError("malformed certificate: arity must be an integer, "
                             f"got {type(k).__name__}")
        if not 2 <= k <= len(ALPHABET):
            raise ParseError("malformed certificate: arity must be between 2 and "
                             f"{len(ALPHABET)}, got {k}")
        return k

    def literal(text, k):
        if not isinstance(text, str):
            raise ParseError("malformed certificate: an element literal must be a "
                             f"string, got {JSON_TYPE_NAMES[type(text)]}")
        if (text, k) not in table:
            table[(text, k)] = parse_element(text, k)
        return table[(text, k)]

    def references(o, k):
        """A factor's element in a simple witness: a literal, or an index
        into `elements`, whose entries are all parsed here, at the
        witness's arity k; the literals the indices name may hold at most
        MAX_REFERENCED_TEXT characters in total."""
        texts = o.get("elements")
        if "elements" in o:
            if not isinstance(texts, list):
                raise ParseError("malformed certificate: 'elements' must be a list")
            for text in texts:
                if not isinstance(text, str):
                    raise ParseError("malformed certificate: 'elements' entries must be "
                                     f"strings, got {JSON_TYPE_NAMES[type(text)]}")
                literal(text, k)
        named = 0

        def element(value, word_k):
            nonlocal named
            if isinstance(value, (bool, float)):
                raise ParseError("malformed certificate: an element index must be an "
                                 f"integer, got {json.dumps(value)}")
            if not isinstance(value, int):
                return literal(value, word_k)
            if texts is None:
                raise ParseError(f"malformed certificate: element index {value} without an "
                                 "'elements' list")
            if value < 0 or value >= len(texts):
                raise ParseError(f"malformed certificate: element index {value} is out of "
                                 f"range for {len(texts)} elements")
            named += len(texts[value])
            if named > MAX_REFERENCED_TEXT:
                raise ParseError("malformed certificate: element indices name more than "
                                 f"{MAX_REFERENCED_TEXT} characters of literal text")
            return table[(texts[value], k)]

        return element

    def word_of(o, k, factor_elem=literal):
        if not isinstance(o, dict) or "kind" not in o:
            raise ParseError("certificate object must carry a 'kind'")
        k = arity_of(o, k)

        def elem(text):
            return literal(text, k)

        def entries(field):
            items = o[field]
            if not isinstance(items, list):
                raise ParseError(f"malformed certificate: '{field}' must be a list")
            for item in items:
                if not isinstance(item, dict):
                    raise ParseError(f"malformed certificate: '{field}' entries must be "
                                     f"objects, got {JSON_TYPE_NAMES[type(item)]}")
                yield item

        try:
            target = elem(o["target"]) if "target" in o else None
            if o["kind"] == "normal_word":
                base = elem(o["base"])
                letters = tuple((elem(l["conj"]), l["exp"]) for l in entries("letters"))
                return NormalWord(base, letters), target
            if o["kind"] == "commutator_word":
                factors = tuple((factor_elem(f["x"], k), factor_elem(f["y"], k))
                                for f in entries("factors"))
                return CommutatorWord(factors, k), target
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError, PreconditionError) as exc:
            raise ParseError(f"malformed certificate: {exc}") from exc
        raise ParseError(f"unknown certificate kind {o['kind']!r}")

    if isinstance(obj, dict) and obj.get("kind") == "simple_witness":
        if not isinstance(obj.get("witness"), dict):
            raise ParseError("simple_witness certificate needs a 'witness' object")
        k = arity_of(obj, arity)
        word, target = word_of(obj["witness"], k)
        if not isinstance(word, NormalWord):
            raise ParseError("a simple_witness 'witness' must be a normal_word")
        element = references(obj, word.base.arity)
        if not isinstance(obj.get("conjugators"), list):
            raise ParseError("a simple_witness 'conjugators' must be a list")
        parsed = [word_of(c, k, element) for c in obj["conjugators"]]
        if not all(isinstance(c, CommutatorWord) for c, _ in parsed):
            raise ParseError("conjugator certificates must be commutator words")
        other = next((c.arity for c, _ in parsed if c.arity != word.base.arity), None)
        if other is not None:
            raise ParseError("malformed certificate: mixed arities "
                             f"{word.base.arity} and {other}")
        if len(parsed) == len(word.letters) and any(
                t is not None and t != conj for (_, t), (conj, _) in zip(parsed, word.letters)):
            raise ParseError("a conjugator certificate's target is not its letter's conjugator")
        cert = SimpleWitness(word, tuple(c for c, _ in parsed))
    else:
        cert, target = word_of(obj, arity)
    if target is None:
        raise ParseError("certificate carries no target to verify against")
    value = cert.evaluate()
    if value != target:
        raise VerificationError("certificate does not evaluate to its target")
    return value


def transporter_zip(src, dst):
    """`compression.transporter` for a proper `src` and a non-empty `dst`,
    with its own pairing: src's code zipped with the first words of dst's
    split code, then `matched_pairs` over the two complements."""
    k = src.arity
    n_src = len(src.code)
    need = n_src + 1 if dst.is_full() else n_src
    m = len(dst.code)
    if m < need:
        m += -(-(need - m) // (k - 1)) * (k - 1)
    target_words = split_words(dst.code, m, k)[:n_src]
    target = canonicalize(target_words, k)
    pairs = list(zip(src.code, target_words))
    pairs += matched_pairs(src.complement().code, target.complement().code, k)
    return PrefixMap.from_pairs(pairs, k)


def claim1_swap_patch(ia, ib, ic):
    """`witnesses.claim1_transporter` with its preconditions, built
    directly: c patches phi = onto_transporter(ia, ib) on ia and phi^-1 on
    ib, d is the certified transporter moving ia ∪ ib into the free
    region, and the certificate is the one commutator [c, d]."""
    if ia.is_empty() or ib.is_empty() or ic.is_empty():
        raise PreconditionError("regions must be non-empty")
    free = ia.union(ib).union(ic).complement()
    if free.is_empty():
        raise PreconditionError("the three regions must not cover the space")
    if ia == ib:
        if not ia.disjoint(ic):
            raise PreconditionError("regions must be pairwise disjoint")
        return Certified.from_word(CommutatorWord((), ia.arity))
    for x, y in ((ia, ib), (ia, ic), (ib, ic)):
        if not x.disjoint(y):
            raise PreconditionError("regions must be pairwise disjoint")
    phi = onto_transporter(ia, ib)
    c = patch([(ia, phi), (ib, phi.inverse())])
    u = transporter(ia.union(ib), free)
    d = derived_conjugator(u, ia.union(ib)).elem
    return Certified.from_word(CommutatorWord(((c, d),), ia.arity))


def patch_pairwise(constraints):
    """`prefixmap.patch` over constraints of one arity, checked pair by
    pair: each region against every region before it, each image (from
    `image`) against every image before it, and the leftover domain and
    range from one canonicalization of all regions and of all images."""
    constraints = list(constraints)
    if not constraints:
        raise PreconditionError("patch needs at least one constraint")
    arity = constraints[0][1].arity
    pinned, regions, images = [], [], []
    for region, g in constraints:
        if any(not seen.disjoint(region) for seen in regions):
            raise PreconditionError("patch regions overlap")
        img = g.image(region)
        if any(not seen.disjoint(img) for seen in images):
            raise PreconditionError("patch images overlap")
        regions.append(region)
        images.append(img)
        pinned.extend(g.restrict(region))
    dom_left = canonicalize([w for s in regions for w in s.code], arity).complement()
    ran_left = canonicalize([w for s in images for w in s.code], arity).complement()
    pinned += matched_pairs(dom_left.code, ran_left.code, arity)
    return PrefixMap.from_pairs(pinned, arity)


def sigma_swap_two_pass(g, region):
    """`prefixmap.sigma_swap` with the image from `image` and the forward
    pieces from a second `restrict` of the same region."""
    g_region = g.image(region)
    if not region.disjoint(g_region):
        raise PreconditionError("swap region overlaps its image")
    forward = g.restrict(region)
    pairs = forward + [(im, w) for w, im in forward]
    pairs += [(w, w) for w in region.union(g_region).complement().code]
    return PrefixMap.from_pairs(pairs, g.arity)


def moved_cylinder_pairs(g):
    """`PrefixMap.moved_cylinder` read off `pairs`: the first moved pair in
    length-lexicographic order, from the list of all moved pairs."""
    moved = [(d, r) for d, r in g.pairs if d != r]
    if not moved:
        raise PreconditionError("the identity moves no cylinder")
    d, r = moved[0]
    if not d.startswith(r) and not r.startswith(d):
        return cylinder(d, g.arity)
    u = r[len(d):] if r.startswith(d) else d[len(r):]
    w = "0" if u[0] != "0" else "1"
    return cylinder(d + w, g.arity)


def decompose2_three_pass(g):
    """`witnesses.decompose2` with the swap from `sigma_swap`, the image
    gY from `image` and the support Y ∪ gY from `union`, each apart."""
    if g.is_identity():
        raise PreconditionError("cannot decompose the identity")
    y = cylinder(moved_cylinder_pairs(g).code[0] + "0", g.arity)
    s2 = sigma_swap(g, y)
    gy = g.image(y)
    s1 = g * s2.inverse()
    return Decomposition(s1, gy.complement(), s2, y.union(gy))


def claim3_targets_disjoint_checks(g, h, k: int):
    """`witnesses._claim3_targets` with every disjointness test between the
    three target cylinders and the test that the targets leave room, all
    made on the cylinders themselves."""
    alpha = letters(k)
    for depth in range(2, 13):
        words = ["".join(p) for p in itertools.product(alpha, repeat=depth)]
        for wc in words:
            ic = cylinder(wc, k)
            for wb in words:
                ib = cylinder(wb, k)
                if not ib.disjoint(ic):
                    continue
                hib = h.image(ib)
                if not hib.disjoint(ic):
                    continue
                for wa in words:
                    ia = cylinder(wa, k)
                    if not ia.disjoint(ib) or not ia.disjoint(ic):
                        continue
                    gia = g.image(ia)
                    if not gia.disjoint(hib) or not gia.disjoint(ic):
                        continue
                    if not ia.union(ib).union(ic).is_full() \
                            and not gia.union(hib).union(ic).is_full():
                        return ia, ib, ic
    raise PreconditionError("could not separate claim3 targets")


def normal_word_to_obj(word, target) -> dict:
    """The object a normal word's JSON text encodes: the oracle of
    `witnesses.dumps_normal_word`."""
    return {
        "kind": "normal_word",
        "arity": word.base.arity,
        "base": str(word.base),
        "letters": [{"conj": str(c), "exp": e} for c, e in word.letters],
        "target": str(target),
    }


def commutator_word_to_obj(word, target) -> dict:
    """The object of `witnesses.dumps_commutator_word`."""
    return {
        "kind": "commutator_word",
        "arity": word.arity,
        "factors": [{"x": str(x), "y": str(y)} for x, y in word.factors],
        "target": str(target),
    }


def simple_witness_to_obj(cert, target) -> dict:
    """The object of `witnesses.dumps_simple_witness`: each distinct factor
    literal once in `elements`, in first-use order (x before y), the
    factors naming them by index, and conjugator words without targets."""
    elements: list[str] = []

    def index(x) -> int:
        if str(x) not in elements:
            elements.append(str(x))
        return elements.index(str(x))

    conjugators = [{"kind": "commutator_word", "arity": c.arity,
                    "factors": [{"x": index(x), "y": index(y)} for x, y in c.factors]}
                   for c in cert.certs]
    return {
        "kind": "simple_witness",
        "arity": cert.word.base.arity,
        "witness": normal_word_to_obj(cert.word, target),
        "conjugators": conjugators,
        "elements": elements,
    }


def simple_witness_to_inline_obj(cert, target) -> dict:
    """A simple witness in the format before the `elements` list: every
    factor literal written out, and each conjugator word carrying its
    letter's conjugator as its target.  Readers still take it."""
    return {
        "kind": "simple_witness",
        "arity": cert.word.base.arity,
        "witness": normal_word_to_obj(cert.word, target),
        "conjugators": [commutator_word_to_obj(c, target=conj)
                        for c, (conj, _e) in zip(cert.certs, cert.word.letters)],
    }
