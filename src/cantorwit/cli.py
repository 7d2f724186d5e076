"""Command-line front end.

Parses element and clopen-set literals, runs the witness constructions,
emits certificates as text or JSON, verifies certificates, and drives the
seeded random-corpus property suites.  Exit codes: 0 success, 1 usage,
2 parse error, 3 precondition violation, 4 verification failure.
"""

import argparse
import functools
import json
import sys

from . import corpus as corpus_mod
from . import witnesses as wit
from .clopen import ALPHABET
from .compression import (join_compression, min_cover_3, orbit_disjoint, transporter,
                          wandering_witness)
from .errors import (ArityMismatchError, ParseError, PreconditionError,
                     ToolkitError, VerificationError)
from .literals import parse_clopen, parse_element
from .prefixmap import sigma_swap
from .witnesses import (CommutatorWord, commutator_word_to_obj, dumps_certificate,
                        normal_word_to_obj, simple_witness_to_obj, verify_certificate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(args, text_lines, obj):
    if args.json:
        print(dumps_certificate(obj))
    else:
        for line in text_lines:
            print(line)


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read certificate: {exc}") from exc


def _read_commutator_word(path: str, arity: int, flag: str) -> CommutatorWord:
    word, _target = wit.certificate_from_obj(_read_json(path), arity)
    if not isinstance(word, CommutatorWord):
        raise ParseError(f"{flag} must contain a commutator_word certificate")
    return word


def cmd_reduce(args):
    g = parse_element(args.element, args.arity)
    print(g)
    return EXIT_OK


def cmd_compose(args):
    acc = parse_element(args.elements[0], args.arity)
    for text in args.elements[1:]:
        acc = acc * parse_element(text, args.arity)
    print(acc)
    return EXIT_OK


def cmd_sigma(args):
    g = parse_element(args.element, args.arity)
    region = parse_clopen(args.region, args.arity)
    print(sigma_swap(g, region))
    return EXIT_OK


def cmd_decompose2(args):
    g = parse_element(args.element, args.arity)
    dec = wit.decompose2(g)
    _emit(args,
          [f"s1 = {dec.s1}", f"support1 = {dec.support1}",
           f"s2 = {dec.s2}", f"support2 = {dec.support2}"],
          {"s1": str(dec.s1), "support1": str(dec.support1),
           "s2": str(dec.s2), "support2": str(dec.support2), "arity": args.arity})
    return EXIT_OK


def cmd_transporter(args):
    src = parse_clopen(args.source, args.arity)
    dst = parse_clopen(args.target, args.arity)
    print(transporter(src, dst))
    return EXIT_OK


def cmd_wandering(args):
    region = parse_clopen(args.region, args.arity)
    g, z = wandering_witness(region)
    window = args.orbit_window
    disjoint = orbit_disjoint(g, region, window)
    _emit(args,
          [f"g = {g}", f"Z = {z}", f"disjoint(|n|<={window}) = {str(disjoint).lower()}"],
          {"g": str(g), "Z": str(z), "window": window, "disjoint": disjoint,
           "arity": args.arity})
    return EXIT_OK if disjoint else EXIT_VERIFY


def cmd_join_compress(args):
    a = parse_clopen(args.part_a, args.arity)
    b = parse_clopen(args.part_b, args.arity)
    print(join_compression(a, b))
    return EXIT_OK


def cmd_cover3(args):
    cover = min_cover_3(args.arity)
    names = ("J1", "J2", "J3", "U1", "U2", "U3")
    _emit(args,
          [f"{name} = {member}" for name, member in zip(names, cover.members)],
          {name: str(member) for name, member in zip(names, cover.members)})
    return EXIT_OK


def _emit_certified(args, name: str, out: wit.Certified):
    _emit(args, [f"{name} = {out.elem}",
                 *(f"factor{i} = [{x},{y}]" for i, (x, y) in enumerate(out.word.factors))],
          commutator_word_to_obj(out.word, target=out.elem))
    return EXIT_OK


def cmd_derived_conj(args):
    g = parse_element(args.element, args.arity)
    region = parse_clopen(args.region, args.arity)
    return _emit_certified(args, "d", wit.derived_conjugator(g, region))


def _parse_witness_args(args):
    a = parse_element(args.a, args.arity)
    ya = parse_clopen(args.ya, args.arity)
    b = parse_element(args.b, args.arity)
    yb = parse_clopen(args.yb, args.arity)
    n = parse_element(args.n, args.arity)
    return a, ya, b, yb, n


def _word_lines(word, value):
    lines = [f"base = {word.base}", f"letters = {len(word.letters)}"]
    lines += [f"letter{i} = exp={e:+d} conj={c}" for i, (c, e) in enumerate(word.letters)]
    lines.append(f"eval = {value}")
    return lines


def cmd_monolith(args):
    a, ya, b, yb, n = _parse_witness_args(args)
    word = wit.monolith_witness(a, ya, b, yb, n)
    value = wit.commutator(a, b)  # the builder checked that the word evaluates to it
    _emit(args, _word_lines(word, value), normal_word_to_obj(word, target=value))
    return EXIT_OK


def cmd_simple(args):
    a, ya, b, yb, n = _parse_witness_args(args)
    n_cert = _read_commutator_word(args.n_cert, args.arity, "--n-cert")
    cert = wit.simple_witness(a, ya, b, yb, n, n_cert)
    value = wit.commutator(a, b)  # the builder checked that the word evaluates to it
    _emit(args, _word_lines(cert.word, value) + [f"conjugator_certs = {len(cert.certs)}"],
          simple_witness_to_obj(cert, target=value))
    return EXIT_OK


def cmd_claim1(args):
    ia = parse_clopen(args.ia, args.arity)
    ib = parse_clopen(args.ib, args.arity)
    ic = parse_clopen(args.ic, args.arity)
    return _emit_certified(args, "e", wit.claim1_transporter(ia, ib, ic))


def cmd_claim2(args):
    g = parse_element(args.element, args.arity)
    g_cert = _read_commutator_word(args.cert, args.arity, "--cert") if args.cert else None
    cover = min_cover_3(args.arity)
    res = wit.claim2_factorization(g, cover, g_cert)
    lines = [f"s1 = {res.s1}", f"s2 = {res.s2}", f"s3 = {res.s3}",
             f"fixes = {','.join(str(i) for i in res.indices)}"]
    obj = {"s1": str(res.s1), "s2": str(res.s2), "s3": str(res.s3),
           "fixes": list(res.indices), "arity": args.arity}
    if res.certs is not None:
        obj["certs"] = [commutator_word_to_obj(c, target=s)
                        for c, s in zip(res.certs, (res.s1, res.s2, res.s3))]
        lines.append("certs = 3")
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_claim3(args):
    g = parse_element(args.g, args.arity)
    h = parse_element(args.h, args.arity)
    cover = min_cover_3(args.arity)
    res = wit.claim3_witness(g, h, cover)
    lines = [f"c = {res.c}", f"IA = {res.ia}", f"IB = {res.ib}", f"IC = {res.ic}"]
    lines += [f"f{i} = {f}" for i, f in enumerate(res.f_table)]
    obj = {"c": str(res.c), "IA": str(res.ia), "IB": str(res.ib), "IC": str(res.ic),
           "f_table": [str(f) for f in res.f_table], "arity": args.arity}
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_chain(args):
    ya = parse_clopen(args.ya, args.arity)
    yb = parse_clopen(args.yb, args.arity)
    g, h = wit.commuting_chain(ya, yb)
    _emit(args, [f"g = {g}", f"h = {h}"],
          {"g": str(g), "h": str(h), "arity": args.arity})
    return EXIT_OK


def cmd_verify(args):
    obj = _read_json(args.certificate)
    value = verify_certificate(obj, args.arity)
    print(f"ok = {value}")
    return EXIT_OK


def cmd_corpus(args):
    results = corpus_mod.run_all(seed=args.seed, arity=args.arity,
                                 window=args.orbit_window,
                                 scale=10 if args.quick else 1, depth=args.depth)
    for res in results:
        print(res.line())
        print(f"  ({res.name}: {res.seconds:.2f}s)", file=sys.stderr)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def _non_negative(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(prog="cantorwit",
                     description="Exact witness constructions for prefix-exchange "
                                 "homeomorphism groups of the Cantor space.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--arity", type=int, default=2, metavar="K",
                        choices=range(2, len(ALPHABET) + 1),
                        help=f"alphabet size, 2 to {len(ALPHABET)} (default 2)")
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--orbit-window", type=_non_negative, default=8,
                        help="wandering disjointness check window")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="canonical reduced form")
    p.add_argument("element")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("compose", parents=[common], help="compose elements left to right")
    p.add_argument("elements", nargs="+")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("sigma", parents=[common], help="swap involution on a moved region")
    p.add_argument("element")
    p.add_argument("region")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("decompose2", parents=[common],
                       help="split into two rigidly supported factors")
    p.add_argument("element")
    p.set_defaults(func=cmd_decompose2)

    p = sub.add_parser("transporter", parents=[common],
                       help="element carrying one clopen set inside another")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_transporter)

    p = sub.add_parser("wandering", parents=[common, window],
                       help="element with pairwise disjoint powers of a region")
    p.add_argument("region")
    p.set_defaults(func=cmd_wandering)

    p = sub.add_parser("join-compress", parents=[common],
                       help="map a disjoint union into its first part")
    p.add_argument("part_a")
    p.add_argument("part_b")
    p.set_defaults(func=cmd_join_compress)

    p = sub.add_parser("cover3", parents=[common],
                       help="minimal 3-cover with private witness sets")
    p.set_defaults(func=cmd_cover3)

    p = sub.add_parser("derived-conj", parents=[common],
                       help="commutator word matching g on a region")
    p.add_argument("element")
    p.add_argument("region")
    p.set_defaults(func=cmd_derived_conj)

    p = sub.add_parser("monolith-witness", parents=[common],
                       help="normal word over n evaluating to [a,b]")
    for name in ("a", "ya", "b", "yb", "n"):
        p.add_argument(name)
    p.set_defaults(func=cmd_monolith)

    p = sub.add_parser("simple-witness", parents=[common],
                       help="monolith witness with certified conjugators")
    for name in ("a", "ya", "b", "yb", "n"):
        p.add_argument(name)
    p.add_argument("--n-cert", required=True,
                   help="path to a commutator_word certificate for n ('-' for stdin)")
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("claim1", parents=[common],
                       help="single commutator mapping IA to IB fixing IC")
    p.add_argument("ia")
    p.add_argument("ib")
    p.add_argument("ic")
    p.set_defaults(func=cmd_claim1)

    p = sub.add_parser("claim2", parents=[common],
                       help="three-factor factorization over the 3-cover")
    p.add_argument("element")
    p.add_argument("--cert", help="optional commutator_word certificate for g")
    p.set_defaults(func=cmd_claim2)

    p = sub.add_parser("claim3", parents=[common],
                       help="simultaneous fixing witness and transporter table")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=cmd_claim3)

    p = sub.add_parser("chain", parents=[common],
                       help="commuting chain between two support regions")
    p.add_argument("ya")
    p.add_argument("yb")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("verify", parents=[common], help="re-check a certificate file")
    p.add_argument("certificate", help="path to a JSON certificate ('-' for stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", parents=[common, window],
                       help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--depth", type=int, default=None,
                   help="max tree depth for random generation (default: per suite)")
    p.add_argument("--quick", action="store_true", help="scale case counts down 10x")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, ArityMismatchError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
