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
from .clopen import ARITIES
from .compression import join_compression, min_cover_3, transporter, wanders, wandering_witness
from .errors import ParseError, PreconditionError, ToolkitError, VerificationError
from .literals import parse_clopen, parse_element
from .prefixmap import compose, sigma_swap
from .witnesses import (CommutatorWord, dumps_certificate, dumps_commutator_word,
                        dumps_normal_word, dumps_simple_witness, verify_certificate)


class _UsageError(ToolkitError):
    label = "usage error"
    exit_code = 1


EXIT_OK = 0
EXIT_USAGE = _UsageError.exit_code
EXIT_PARSE = ParseError.exit_code
EXIT_PRECONDITION = PreconditionError.exit_code
EXIT_VERIFY = VerificationError.exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(args, text_lines, json_text):
    """Print the JSON text under --json, the text lines otherwise.  Both
    come as functions of no arguments, and only the one printed is called,
    so a request formats no output that it does not print."""
    if args.json:
        print(json_text())
    else:
        for line in text_lines():
            print(line)


def _emit_fields(args, fields: dict):
    """Print one `name = value` line per field, or under --json the fields'
    object with the arity.  A boolean is written as JSON writes it."""
    _emit(args,
          lambda: [f"{name} = {json.dumps(v) if isinstance(v, bool) else v}"
                   for name, v in fields.items()],
          lambda: dumps_certificate({**{name: v if isinstance(v, bool) else str(v)
                                        for name, v in fields.items()},
                                     "arity": args.arity}))


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
    print(args.element)


def cmd_compose(args):
    print(compose(*args.elements))


def cmd_sigma(args):
    print(sigma_swap(args.element, args.region))


def cmd_decompose2(args):
    dec = wit.decompose2(args.element)
    _emit_fields(args, {"s1": dec.s1, "support1": dec.support1,
                        "s2": dec.s2, "support2": dec.support2})


def cmd_transporter(args):
    print(transporter(args.source, args.target))


def cmd_wandering(args):
    g, trap = wandering_witness(args.region)
    ok = wanders(g, args.region, trap)
    _emit_fields(args, {"g": g, "trap": trap, "wanders": ok})
    if not ok:
        return EXIT_VERIFY


def cmd_join_compress(args):
    print(join_compression(args.part_a, args.part_b))


def cmd_cover3(args):
    _emit_fields(args, dict(zip(("J1", "J2", "J3", "U1", "U2", "U3"),
                                min_cover_3(args.arity).members)))


def _emit_certified(args, name: str, out: wit.Certified):
    _emit(args,
          lambda: [f"{name} = {out.elem}",
                   *(f"factor{i} = [{x},{y}]" for i, (x, y) in enumerate(out.word.factors))],
          lambda: dumps_commutator_word(out.word, out.elem))


def cmd_derived_conj(args):
    _emit_certified(args, "d", wit.derived_conjugator(args.element, args.region))


def _word_lines(word, value):
    lines = [f"base = {word.base}", f"letters = {len(word.letters)}"]
    lines += [f"letter{i} = exp={e:+d} conj={c}" for i, (c, e) in enumerate(word.letters)]
    lines.append(f"eval = {value}")
    return lines


def cmd_monolith(args):
    word = wit.monolith_witness(args.a, args.ya, args.b, args.yb, args.n)
    value = wit.commutator(args.a, args.b)  # the builder checked that the word evaluates to it
    _emit(args, lambda: _word_lines(word, value),
          lambda: dumps_normal_word(word, value))


def cmd_simple(args):
    cert = wit.simple_witness(args.a, args.ya, args.b, args.yb, args.n, args.n_cert)
    value = wit.commutator(args.a, args.b)  # the builder checked that the word evaluates to it
    _emit(args, lambda: _word_lines(cert.word, value) + [f"conjugator_certs = {len(cert.certs)}"],
          lambda: dumps_simple_witness(cert, value))


def cmd_claim1(args):
    _emit_certified(args, "e", wit.claim1_transporter(args.ia, args.ib, args.ic))


def cmd_claim2(args):
    res = wit.claim2_factorization(args.element, args.cert)
    certified = res.certs is not None

    def lines():
        return [f"s1 = {res.s1}", f"s2 = {res.s2}", f"s3 = {res.s3}",
                f"fixes = {','.join(str(i) for i in res.indices)}",
                *(["certs = 3"] if certified else [])]

    def json_text():
        out = {"s1": str(res.s1), "s2": str(res.s2), "s3": str(res.s3),
               "fixes": list(res.indices), "arity": args.arity}
        if certified:
            out["certs"] = [json.loads(dumps_commutator_word(c, s))
                            for c, s in zip(res.certs, (res.s1, res.s2, res.s3))]
        return dumps_certificate(out)

    _emit(args, lines, json_text)


def cmd_claim3(args):
    res = wit.claim3_witness(args.g, args.h)
    _emit(args,
          lambda: [f"c = {res.c}", f"IA = {res.ia}", f"IB = {res.ib}", f"IC = {res.ic}",
                   *(f"f{i} = {f}" for i, f in enumerate(res.f_table))],
          lambda: dumps_certificate({"c": str(res.c), "IA": str(res.ia), "IB": str(res.ib),
                                     "IC": str(res.ic), "f_table": [str(f) for f in res.f_table],
                                     "arity": args.arity}))


def cmd_chain(args):
    g, h = wit.commuting_chain(args.ya, args.yb)
    _emit_fields(args, {"g": g, "h": h})


def cmd_verify(args):
    obj = _read_json(args.certificate)
    value = verify_certificate(obj, args.arity)
    print(f"ok = {value}")


def cmd_corpus(args):
    ok = True
    for index in range(len(corpus_mod.SUITES)):
        res = corpus_mod.run_suite(index, args.seed + index, args.arity,
                                   10 if args.quick else 1)
        print(res.line())
        print(f"  ({res.name}: {res.seconds:.2f}s)", file=sys.stderr)
        ok = ok and res.ok
    if not ok:
        return EXIT_VERIFY


# An argument is (name, reader, [add_argument options]).  The reader turns the
# text into a value at the parsed --arity, or is None for a plain argument.
_JSON = ("--json", None, {"action": "store_true", "help": "emit JSON instead of text"})
_WITNESS_ARGS = (("a", parse_element), ("ya", parse_clopen), ("b", parse_element),
                 ("yb", parse_clopen), ("n", parse_element))

# Each subcommand once: name, handler, help, arguments.
_COMMANDS = (
    ("reduce", cmd_reduce, "canonical reduced form", (("element", parse_element),)),
    ("compose", cmd_compose, "compose elements left to right",
     (("elements", parse_element, {"nargs": "+"}),)),
    ("sigma", cmd_sigma, "swap involution on a moved region",
     (("element", parse_element), ("region", parse_clopen))),
    ("decompose2", cmd_decompose2, "split into two rigidly supported factors",
     (("element", parse_element), _JSON)),
    ("transporter", cmd_transporter, "element carrying one clopen set inside another",
     (("source", parse_clopen), ("target", parse_clopen))),
    ("wandering", cmd_wandering, "element with pairwise disjoint powers of a region",
     (("region", parse_clopen), _JSON)),
    ("join-compress", cmd_join_compress, "map a disjoint union into its first part",
     (("part_a", parse_clopen), ("part_b", parse_clopen))),
    ("cover3", cmd_cover3, "minimal 3-cover with private witness sets", (_JSON,)),
    ("derived-conj", cmd_derived_conj, "commutator word matching g on a region",
     (("element", parse_element), ("region", parse_clopen), _JSON)),
    ("monolith-witness", cmd_monolith, "normal word over n evaluating to [a,b]",
     (*_WITNESS_ARGS, _JSON)),
    ("simple-witness", cmd_simple, "monolith witness with certified conjugators",
     (*_WITNESS_ARGS, _JSON,
      ("--n-cert", functools.partial(_read_commutator_word, flag="--n-cert"),
       {"required": True,
        "help": "path to a commutator_word certificate for n ('-' for stdin)"}))),
    ("claim1", cmd_claim1, "single commutator mapping IA to IB fixing IC",
     (("ia", parse_clopen), ("ib", parse_clopen), ("ic", parse_clopen), _JSON)),
    ("claim2", cmd_claim2, "three-factor factorization over the 3-cover",
     (("element", parse_element), _JSON,
      # an empty path means no certificate
      ("--cert", functools.partial(_read_commutator_word, flag="--cert"),
       {"type": lambda path: path or None,
        "help": "optional commutator_word certificate for g"}))),
    ("claim3", cmd_claim3, "simultaneous fixing witness and transporter table",
     (("g", parse_element), ("h", parse_element), _JSON)),
    ("chain", cmd_chain, "commuting chain between two support regions",
     (("ya", parse_clopen), ("yb", parse_clopen), _JSON)),
    ("verify", cmd_verify, "re-check a certificate file",
     (("certificate", None, {"help": "path to a JSON certificate ('-' for stdin)"}),)),
    ("corpus", cmd_corpus, "run the seeded property suites",
     (("--seed", None, {"type": int, "default": 0, "help": "random seed"}),
      ("--quick", None, {"action": "store_true", "help": "scale case counts down 10x"}))),
)


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(prog="cantorwit",
                     description="Exact witness constructions for prefix-exchange "
                                 "homeomorphism groups of the Cantor space.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--arity", type=int, default=2, metavar="K",
                        choices=ARITIES,
                        help=f"alphabet size, {ARITIES[0]} to {ARITIES[-1]} (default 2)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        literals = []
        for arg, read, *options in arguments:
            action = p.add_argument(arg, **dict(*options))
            if read is not None:
                literals.append((action.dest, read))
        p.set_defaults(func=handler, literals=literals)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # after parsing, so that an --arity given after a literal applies to it
        for dest, read in args.literals:
            value = getattr(args, dest)
            if isinstance(value, list):
                setattr(args, dest, [read(text, args.arity) for text in value])
            elif value is not None:
                setattr(args, dest, read(value, args.arity))
        # a handler returns an exit code only when its check failed
        return args.func(args) or EXIT_OK
    except ToolkitError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
