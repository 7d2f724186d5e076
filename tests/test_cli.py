import io
import itertools
import json
import random
import shlex
import time
from pathlib import Path

import pytest

from cantorwit import cli, corpus, witnesses
from cantorwit.compression import wandering_base
from cantorwit.corpus import random_element, random_witness_input
from cantorwit.literals import parse_clopen, parse_element
from cantorwit.errors import ParseError
from cantorwit.witnesses import certificate_from_obj, commutator

from helpers import parse_element_per_token

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def simple_proper_with_conjugator_target(target, name="simple_proper_inline.json"):
    """The simple_proper certificate, by default in the format whose
    conjugator words carry targets, with its first conjugator object's
    target replaced (dropped when None), as JSON text."""
    obj = json.loads((GOLDEN / name).read_text())
    if target is None:
        obj["conjugators"][0].pop("target", None)
    else:
        obj["conjugators"][0]["target"] = target
    return json.dumps(obj)


# A simple witness whose top-level arity lies outside 2..10, over an empty
# witness that names arity 2 itself.
SIMPLE_WITNESS_ARITY_11 = (
    '{"kind":"simple_witness","arity":11,"conjugators":[],"witness":{"kind":"normal_word",'
    '"arity":2,"base":"{0->1,1->0}","letters":[],"target":"{e->e}"}}')
SIMPLE_WITNESS_MIXED_ARITIES = (
    '{"kind":"simple_witness","arity":3,"witness":{"kind":"normal_word","arity":2,'
    '"base":"{0->1,1->0}","letters":[{"conj":"{e->e}","exp":1}],"target":"{0->1,1->0}"},'
    '"conjugators":[{"kind":"commutator_word","factors":[]}]}')

# A literal or a list entry of the wrong JSON type, with the stderr of its
# refusal: the reader names the type it found.
NOT_A_STRING = "parse error: malformed certificate: an element literal must be a string, got "
MISTYPED_FIELDS = {
    '{"kind":"commutator_word","factors":[{"x":1,"y":"{e->e}"}],"target":"{e->e}"}':
        NOT_A_STRING + "number",
    '{"kind":"normal_word","base":7,"letters":[],"target":"{e->e}"}': NOT_A_STRING + "number",
    '{"kind":"commutator_word","factors":[],"target":["{e->e}"]}': NOT_A_STRING + "array",
    '{"kind":"normal_word","base":null,"letters":[],"target":"{0->1,1->0}"}':
        NOT_A_STRING + "null",
    '{"kind":"commutator_word","factors":[{"x":"{e->e}","y":{}}],"target":"{e->e}"}':
        NOT_A_STRING + "object",
    '{"kind":"normal_word","base":"{0->1,1->0}","letters":[{"conj":true,"exp":1}],'
    '"target":"{0->1,1->0}"}': NOT_A_STRING + "boolean",
    '{"kind":"commutator_word","factors":[1],"target":"{e->e}"}':
        "parse error: malformed certificate: 'factors' entries must be objects, got number",
    '{"kind":"normal_word","base":"{0->1,1->0}","letters":[["{e->e}",1]],'
    '"target":"{0->1,1->0}"}':
        "parse error: malformed certificate: 'letters' entries must be objects, got array",
    # the target is read first, so its type is reported before the factor's
    '{"kind":"commutator_word","factors":[{"x":1,"y":"{e->e}"}],"target":5}':
        NOT_A_STRING + "number",
    # entries are refused as they are reached: a bad literal before a bad entry
    '{"kind":"commutator_word","factors":[{"x":"{0->","y":"{e->e}"},"x"],"target":"{e->e}"}':
        "parse error: element literal must be braced like {0->1,1->0} (at position 0)",
}


class TestParsing:
    def test_element_roundtrip(self):
        g = parse_element("{0->1, 1->0}")
        assert str(g) == "{0->1,1->0}"
        assert parse_element(str(g)) == g

    def test_clopen_roundtrip(self):
        c = parse_clopen("[00, 01]")
        assert str(c) == "[0]"
        assert parse_clopen(str(c)) == c

    def test_incomplete_domain_rejected(self):
        with pytest.raises(ParseError):
            parse_element("{0->00, 10->01}")

    def test_bad_syntax_rejected(self):
        with pytest.raises(ParseError):
            parse_element("0->1")
        with pytest.raises(ParseError):
            parse_clopen("{0}")
        with pytest.raises(ParseError):
            parse_element("{0=>1}")

    def test_arity_inconsistency_rejected(self):
        with pytest.raises(ParseError):
            parse_clopen("[02]", 2)

    @pytest.mark.parametrize("arity", [1, 11])
    def test_invalid_arity_rejected(self, arity):
        for text in ("[]", "[0]"):
            with pytest.raises(ParseError):
                parse_clopen(text, arity)


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "no-such-command")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: ")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "reduce", "{0->00,10->01}")
        assert code == cli.EXIT_PARSE
        assert "parse error" in err

    def test_precondition_error(self, capsys):
        code, _, err = run(capsys, "decompose2", "{e->e}")
        assert code == cli.EXIT_PRECONDITION
        assert "precondition" in err

    def test_ok(self, capsys):
        code, out, _ = run(capsys, "reduce", "{00->00,01->01,1->1}")
        assert code == cli.EXIT_OK
        assert out.strip() == "{e->e}"

    @pytest.mark.parametrize("argv", [
        ("reduce", "{e->e}", "--seed", "3"),
        ("wandering", "[01]", "--orbit-window", "-1"),
        ("wandering", "[01]", "--orbit-window", "x"),
        ("wandering", "[01]", "--orbit-window", "8"),
        ("corpus", "--quick", "--orbit-window", "-1"),
        ("corpus", "--depth", "5"),
        ("corpus", "--quick", "--orbit-window", "8"),
        ("reduce", "{e->e}", "--json"),
        ("verify", str(GOLDEN / "gcert.json"), "--json"),
        ("reduce", "{e->e}", "--arity", "1"),
        ("derived-conj", "{0->1,1->0}", "[00]", "--arity", "11"),
        ("cover3", "--arity", "1"),
        ("corpus", "--quick", "--arity", "11"),
        ("chain", "[00]", "[01]", "--arity", "1"),
        ("join-compress", "[00]", "[01]", "--arity", "11"),
        ("wandering", "[01]", "--arity", "11"),
    ])
    def test_rejected_options(self, capsys, argv):
        assert run(capsys, *argv)[0] == cli.EXIT_USAGE

    def test_claim1_infeasible_completion(self, capsys):
        code, out, err = run(capsys, "claim1", "--arity", "3", "[0]", "[10,11]", "[2]")
        assert code == cli.EXIT_PRECONDITION and out == ""
        assert "infeasible completion: 1 vs 2 words, arity 3" in err

    def test_claim1_equal_sets_meeting_the_fixed_set(self, capsys):
        code, out, err = run(capsys, "claim1", "[0]", "[0]", "[01]")
        assert code == cli.EXIT_PRECONDITION and out == ""
        assert "pairwise disjoint" in err

    def test_claim1_empty_region(self, capsys):
        code, out, err = run(capsys, "claim1", "[]", "[01]", "[10]")
        assert (code, out, err) == (cli.EXIT_PRECONDITION, "",
                                    "precondition error: regions must be non-empty\n")

    def test_monolith_witness_whole_space_support(self, capsys):
        code, out, err = run(capsys, "monolith-witness", "{0->1,1->0}", "[e]",
                             "{0->1,1->0}", "[1]", "{0->1,1->0}")
        assert code == cli.EXIT_PRECONDITION and out == ""
        assert "support region of a must be proper and non-empty" in err



class TestLiteralArguments:
    """Declared literals are read at the parsed --arity, left to right,
    before the certificate files and before the subcommand runs."""

    def test_read_at_arity_given_after_it(self, capsys):
        code, out, err = run(capsys, "reduce", "{0->1,1->2,2->0}", "--arity", "3")
        assert (code, out, err) == (cli.EXIT_OK, "{0->1,1->2,2->0}\n", "")

    def test_malformed_third_compose_element(self, capsys):
        code, out, err = run(capsys, "compose", "{0->1,1->0}", "{00->01,01->00,1->1}", "{0->1")
        assert code == cli.EXIT_PARSE and out == ""
        assert err == "parse error: element literal must be braced like {0->1,1->0} (at position 0)\n"

    def test_empty_literal_is_read(self, capsys):
        code, out, err = run(capsys, "reduce", "")
        assert code == cli.EXIT_PARSE and out == "" and err.startswith("parse error:")

    def test_first_bad_literal_wins(self, capsys):
        code, _, err = run(capsys, "sigma", "{0=>1}", "[2]")
        assert code == cli.EXIT_PARSE and "missing '->'" in err

    def test_literals_before_certificate_file(self, capsys):
        code, out, err = run(capsys, "simple-witness", "{00->01,01->00,1->1}", "[0]",
                             "{00->00,01->10,10->01,11->11}", "[01,1]", "{0->0",
                             "--n-cert", "no-such-file.json")
        assert code == cli.EXIT_PARSE and out == ""
        assert err.startswith("parse error: element literal")


class TestSubcommands:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "{0->1,1->0}", "{0->1,1->0}")
        assert code == 0 and out.strip() == "{e->e}"

    def test_sigma(self, capsys):
        code, out, _ = run(capsys, "sigma", "{0->1,1->0}", "[00]")
        assert code == 0 and out.strip() == "{00->10,01->01,10->00,11->11}"

    def test_decompose2_output_recomposes(self, capsys):
        code, out, _ = run(capsys, "decompose2", "{0->1,1->0}", "--json")
        assert code == 0
        obj = json.loads(out)
        s1, s2 = parse_element(obj["s1"]), parse_element(obj["s2"])
        assert s1 * s2 == parse_element("{0->1,1->0}")

    def test_transporter(self, capsys):
        code, out, _ = run(capsys, "transporter", "[0]", "[11]")
        assert code == 0
        h = parse_element(out.strip())
        assert h.image(parse_clopen("[0]")).subset(parse_clopen("[11]"))

    def test_wandering(self, capsys):
        code, out, _ = run(capsys, "wandering", "[01]")
        assert code == 0
        assert "wanders = true" in out

    def test_wandering_failing_trap_exits_verify(self, capsys, monkeypatch):
        # a trap that meets the region certifies nothing
        monkeypatch.setattr(cli, "wandering_witness",
                            lambda region: (wandering_base(region.arity)[0], region))
        code, out, _ = run(capsys, "wandering", "[01]")
        assert code == cli.EXIT_VERIFY
        assert out.endswith("wanders = false\n")

    def test_join_compress(self, capsys):
        code, out, _ = run(capsys, "join-compress", "[00]", "[01]")
        assert code == 0
        g = parse_element(out.strip())
        assert g.image(parse_clopen("[0]")).subset(parse_clopen("[00]"))

    def test_cover3(self, capsys):
        code, out, _ = run(capsys, "cover3")
        assert code == 0
        assert "J1 = [00,110]" in out

    def test_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "[00]", "[01]")
        assert code == 0

    def test_claim2(self, capsys):
        code, out, _ = run(capsys, "claim2", "{0->1,1->0}", "--json")
        assert code == 0
        obj = json.loads(out)
        s = [parse_element(obj[k]) for k in ("s1", "s2", "s3")]
        assert s[0] * s[1] * s[2] == parse_element("{0->1,1->0}")

    def test_claim3(self, capsys):
        code, out, _ = run(capsys, "claim3", "{0->1,1->0}", "{e->e}", "--json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["f_table"]) == 6

    def test_cross_process_determinism(self):
        # string-hash randomization must not leak into output
        import os
        import subprocess
        import sys
        argv = [sys.executable, "-m", "cantorwit.cli", "claim3",
                "{0->00,10->01,11->1}", "{0->1,1->0}", "--json"]
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            outs.append(subprocess.run(argv, capture_output=True, env=env,
                                       check=True).stdout)
        assert outs[0] == outs[1]

    def test_determinism(self, capsys):
        first = run(capsys, "monolith-witness",
                    "{0000->0001,0001->0000,001->001,01->01,1->1}", "[00]",
                    "{00000->00001,00001->00000,0001->0001,001->001,01->01,1->1}", "[00]",
                    "{00->01,01->00,1->1}", "--json")
        second = run(capsys, "monolith-witness",
                     "{0000->0001,0001->0000,001->001,01->01,1->1}", "[00]",
                     "{00000->00001,00001->00000,0001->0001,001->001,01->01,1->1}", "[00]",
                     "{00->01,01->00,1->1}", "--json")
        assert first == second


class TestVerify:
    def _monolith_json(self, capsys):
        # a 3-cycle base (not an involution) so an exponent flip changes the value
        code, out, _ = run(capsys, "monolith-witness",
                           "{0000->0001,0001->0000,001->001,01->01,1->1}", "[00]",
                           "{00000->00001,00001->00000,0001->0001,001->001,01->01,1->1}",
                           "[00]", "{00->01,01->10,10->00,11->11}", "--json")
        assert code == 0
        return json.loads(out)

    def test_verify_ok(self, capsys, tmp_path):
        obj = self._monolith_json(capsys)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out.startswith("ok =")

    def test_tampered_exponent_fails(self, capsys, tmp_path):
        obj = self._monolith_json(capsys)
        obj["letters"][0]["exp"] = -obj["letters"][0]["exp"]
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "verify", str(path))
        assert code == cli.EXIT_VERIFY

    def test_derived_conj_verify_and_tamper(self, capsys, tmp_path):
        code, out, _ = run(capsys, "derived-conj", "{0->00,10->01,11->1}", "[11]",
                           "--json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["factors"]) == 2
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, "verify", str(path))[0] == 0
        obj["factors"] = obj["factors"][:1]
        path.write_text(json.dumps(obj))
        assert run(capsys, "verify", str(path))[0] == cli.EXIT_VERIFY

    def test_malformed_certificate(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "verify", str(path))[0] == cli.EXIT_PARSE

    def test_conjugator_certificate_must_be_commutator_word(self, capsys, tmp_path):
        n = "{0->1,1->0}"
        obj = {"kind": "simple_witness", "arity": 2,
               "witness": {"kind": "normal_word", "base": n, "target": n,
                           "letters": [{"conj": "{e->e}", "exp": 1}]},
               "conjugators": [{"kind": "normal_word", "base": n, "letters": []}]}
        path = tmp_path / "sw.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, "verify", str(path))[0] == cli.EXIT_PARSE

    def test_simple_witness_off_target_fails(self, capsys, tmp_path):
        obj = json.loads((GOLDEN / "simple_proper.txt").read_text())
        obj["witness"]["letters"][0]["exp"] *= -1
        path = tmp_path / "sw.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "verify", str(path))
        assert code == cli.EXIT_VERIFY
        assert err == "verification failed: certificate does not evaluate to its target\n"


    def test_conjugator_target_must_be_its_letter(self, capsys, tmp_path):
        """A conjugator target, which the writer no longer emits but a file
        may carry, is still checked against its letter, in the inline
        format and in the `elements` one."""
        path = tmp_path / "sw.json"
        for name in ("simple_proper_inline.json", "simple_proper.txt"):
            path.write_text(simple_proper_with_conjugator_target("{0->1,1->0}", name))
            code, _, err = run(capsys, "verify", str(path))
            assert code == cli.EXIT_PARSE
            assert err == ("parse error: a conjugator certificate's target is not its "
                           "letter's conjugator\n")
            conj = json.loads((GOLDEN / name).read_text())["witness"]["letters"][0]["conj"]
            for target in (None, conj):
                path.write_text(simple_proper_with_conjugator_target(target, name))
                assert run(capsys, "verify", str(path))[0] == cli.EXIT_OK

    def test_malformed_target_outranks_a_failing_conjugator(self, capsys, tmp_path):
        """A certificate that fails to evaluate and has a malformed target
        is a parse error: the target is read before anything is evaluated."""
        obj = json.loads((GOLDEN / "simple_proper.txt").read_text())
        obj["conjugators"][0]["factors"] = []
        path = tmp_path / "sw.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, "verify", str(path))[0] == cli.EXIT_VERIFY
        obj["witness"]["target"] = "{0->1,1-0}"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "verify", str(path))
        assert code == cli.EXIT_PARSE
        assert err == "parse error: pair '1-0' is missing '->' (at position 6)\n"


def simple_proper_with(change) -> str:
    """The simple_proper golden certificate after `change(obj)`, as JSON
    text."""
    obj = json.loads((GOLDEN / "simple_proper.txt").read_text())
    change(obj)
    return json.dumps(obj)


def set_first_x(value):
    def change(obj):
        obj["conjugators"][0]["factors"][0]["x"] = value
    return change


def set_elements(value):
    def change(obj):
        obj["elements"] = value
    return change


MALFORMED = "parse error: malformed certificate: "
SIMPLE_PROPER_ELEMENTS = len(json.loads((GOLDEN / "simple_proper.txt").read_text())["elements"])


class TestElementReferences:
    """A simple witness's factors name their elements by index into its
    `elements` list; each bad reference or table exits 2 naming it."""

    @pytest.mark.parametrize("change, message", [
        (set_first_x(SIMPLE_PROPER_ELEMENTS),
         f"element index {SIMPLE_PROPER_ELEMENTS} is out of range for "
         f"{SIMPLE_PROPER_ELEMENTS} elements"),
        (set_first_x(-1), f"element index -1 is out of range for {SIMPLE_PROPER_ELEMENTS} elements"),
        (set_first_x(True), "an element index must be an integer, got true"),
        (set_first_x(1.0), "an element index must be an integer, got 1.0"),
        (set_elements({}), "'elements' must be a list"),
        (set_elements("{e->e}"), "'elements' must be a list"),
        (set_elements(None), "'elements' must be a list"),
        (lambda obj: obj["elements"].append(5), "'elements' entries must be strings, got number"),
        (lambda obj: obj.pop("elements"), "element index 0 without an 'elements' list"),
    ], ids=["out-of-range", "negative", "true", "float", "elements-object", "elements-string",
            "elements-null", "number-entry", "no-elements"])
    def test_bad_reference_exits_parse(self, capsys, tmp_path, change, message):
        path = tmp_path / "sw.json"
        path.write_text(simple_proper_with(change))
        assert run(capsys, "verify", str(path)) == (cli.EXIT_PARSE, "", MALFORMED + message + "\n")

    def test_int_in_a_standalone_commutator_word_is_no_index(self, capsys, tmp_path):
        path = tmp_path / "cw.json"
        path.write_text('{"kind":"commutator_word","elements":["{e->e}"],'
                        '"factors":[{"x":0,"y":0}],"target":"{e->e}"}')
        assert run(capsys, "verify", str(path)) == (
            cli.EXIT_PARSE, "", NOT_A_STRING + "number\n")

    def test_unused_elements_are_allowed(self, capsys, tmp_path):
        """An emptied conjugator word leaves elements unused: the file
        reads, and fails on its value."""
        def empty_first(obj):
            obj["conjugators"][0]["factors"] = []
            obj["elements"].append("{0->1,1->0}")
        path = tmp_path / "sw.json"
        path.write_text(simple_proper_with(empty_first))
        assert run(capsys, "verify", str(path)) == (
            cli.EXIT_VERIFY, "",
            "verification failed: a conjugator certificate does not match its letter\n")

    @pytest.mark.parametrize("factor", [{"x": 0, "y": 0}, {"x": "{e->e}", "y": "{e->e}"}],
                             ids=["by-index", "inline"])
    def test_elements_are_read_at_the_witness_arity(self, capsys, tmp_path, factor):
        """Parts that all name arity 2 under a top-level arity 3 verify,
        whether the factors name their elements by index or inline."""
        path = tmp_path / "sw.json"
        path.write_text(json.dumps({
            "kind": "simple_witness", "arity": 3, "elements": ["{e->e}"],
            "witness": {"kind": "normal_word", "arity": 2, "base": "{0->1,1->0}",
                        "letters": [{"conj": "{e->e}", "exp": 1}], "target": "{0->1,1->0}"},
            "conjugators": [{"kind": "commutator_word", "arity": 2, "factors": [factor]}]}))
        assert run(capsys, "verify", str(path)) == (cli.EXIT_OK, "ok = {0->1,1->0}\n", "")

    BIG = "{e->e" + " " * 100_000 + "}"      # a valid literal of about 100 KB

    def huge_reference_file(self, references: int) -> str:
        """A simple witness whose one element is BIG and whose one
        conjugator names it `references` times."""
        return json.dumps({
            "kind": "simple_witness", "arity": 2, "elements": [self.BIG],
            "witness": {"kind": "normal_word", "base": "{0->1,1->0}", "target": "{e->e}",
                        "letters": [{"conj": "{e->e}", "exp": 1}]},
            "conjugators": [{"kind": "commutator_word",
                             "factors": [{"x": 0, "y": 0}] * (references // 2)}]})

    def test_referenced_text_past_the_limit_exits_before_any_composition(
            self, capsys, tmp_path, monkeypatch):
        from cantorwit import prefixmap, witnesses

        def no_compose(*factors):
            raise AssertionError("composed while reading")

        assert 166 * len(self.BIG) <= witnesses.MAX_REFERENCED_TEXT < 170 * len(self.BIG)
        monkeypatch.setattr(prefixmap, "compose", no_compose)
        monkeypatch.setattr(witnesses, "compose", no_compose)
        path = tmp_path / "huge.json"
        path.write_text(self.huge_reference_file(170))
        assert run(capsys, "verify", str(path)) == (
            cli.EXIT_PARSE, "", f"{MALFORMED}element indices name more than "
            f"{witnesses.MAX_REFERENCED_TEXT} characters of literal text\n")
        sw, _ = certificate_from_obj(json.loads(self.huge_reference_file(166)))
        assert len(sw.certs[0].factors) == 83


# each certificate flag with a request it fits, at arity 2
CERT_FLAGS = [
    ("--cert", ["claim2", "{00->01,01->00,10->11,11->10}"]),
    ("--n-cert", ["simple-witness", "{00->01,01->00,1->1}", "[0]",
                  "{00->00,01->10,10->01,11->11}", "[01,1]",
                  "{00->10,01->00,10->01,11->11}"]),
]


class TestCertificateFlags:
    """--cert and --n-cert both take a commutator_word file and nothing else."""

    def test_claim2_rejects_normal_word_cert(self, capsys):
        path = GOLDEN / "monolith_proper.txt"
        target = json.loads(path.read_text())["target"]
        code, _, err = run(capsys, "claim2", target, "--cert", str(path))
        assert code == cli.EXIT_PARSE
        assert err == "parse error: --cert must contain a commutator_word certificate\n"

    def test_simple_witness_rejects_normal_word_n_cert(self, capsys):
        path = GOLDEN / "monolith_proper.txt"
        code, _, err = run(capsys, "simple-witness", "{00->01,01->00,1->1}", "[0]",
                           "{00->00,01->10,10->01,11->11}", "[01,1]",
                           "{00->01,01->10,10->00,11->11}", "--n-cert", str(path))
        assert code == cli.EXIT_PARSE
        assert err == "parse error: --n-cert must contain a commutator_word certificate\n"

    def test_empty_cert_path_means_no_certificate(self, capsys):
        code, out, _ = run(capsys, "claim2", "{00->01,01->00,10->11,11->10}", "--cert", "")
        assert code == cli.EXIT_OK and "certs" not in out

    @pytest.mark.parametrize("flag, argv", CERT_FLAGS)
    def test_malformed_target_is_refused(self, capsys, tmp_path, flag, argv):
        """A certificate flag reads the file's target too, and refuses it
        when it does not parse, even though the command does not use it."""
        obj = json.loads((GOLDEN / ("gcert.json" if flag == "--cert" else "ncert.json")).read_text())
        obj["target"] = "{0->1,1-0}"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == "parse error: pair '1-0' is missing '->' (at position 6)\n"

    @pytest.mark.parametrize("flag, argv", CERT_FLAGS)
    def test_other_arity_is_refused_as_mixed_arities(self, capsys, flag, argv):
        code, out, err = run(capsys, *argv, flag, str(GOLDEN / "ncert_arity3.json"))
        assert (code, out) == (cli.EXIT_PRECONDITION, "")
        assert err == "precondition error: mixed arities 2 and 3\n"


class TestSimpleWitnessCommand:
    def test_simple_witness_roundtrip(self, capsys, tmp_path):
        # build a certificate for a nontrivial commutator base
        x = "{00->01,01->00,1->1}"
        y = "{01->10,10->01,00->00,11->11}"
        ncert = {
            "kind": "commutator_word", "arity": 2,
            "factors": [{"x": x, "y": y}],
        }
        n = parse_element(x) * parse_element(y) * parse_element(x).inverse() \
            * parse_element(y).inverse()
        cert_path = tmp_path / "ncert.json"
        cert_path.write_text(json.dumps(ncert))
        code, out, _ = run(capsys, "simple-witness",
                           "{0000->0001,0001->0000,001->001,01->01,1->1}", "[00]",
                           "{00000->00001,00001->00000,0001->0001,001->001,01->01,1->1}",
                           "[00]", str(n), "--n-cert", str(cert_path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "simple_witness"
        wpath = tmp_path / "sw.json"
        wpath.write_text(json.dumps(obj))
        assert run(capsys, "verify", str(wpath))[0] == 0
        # tamper with one conjugator certificate
        obj["conjugators"][0]["factors"] = []
        wpath.write_text(json.dumps(obj))
        assert run(capsys, "verify", str(wpath))[0] == cli.EXIT_VERIFY


class TestWitnessTargets:
    """The witness commands emit [a, b] as the target without evaluating the
    word; the emitted word must still evaluate to exactly that target."""

    @pytest.mark.parametrize("full_union", [False, True])
    def test_target_is_the_evaluated_word(self, capsys, full_union):
        ncert = str(Path(__file__).parent / "golden" / "ncert.json")
        n_simple = str(commutator(parse_element("{00->01,01->00,1->1}"),
                                  parse_element("{01->10,10->01,00->00,11->11}")))
        rng = random.Random(80 + full_union)
        for _ in range(5):
            a, ya, b, yb = random_witness_input(rng, full_union=full_union)
            n = random_element(rng, nontrivial=True)
            args = [str(a), str(ya), str(b), str(yb)]
            for argv, part in ((["monolith-witness", *args, str(n)], None),
                               (["simple-witness", *args, n_simple, "--n-cert", ncert],
                                "witness")):
                code, out, _ = run(capsys, *argv, "--json")
                assert code == cli.EXIT_OK
                obj = json.loads(out)
                word, target = certificate_from_obj(obj[part] if part else obj)
                assert word.evaluate() == target == commutator(a, b)


class TestCorpusCommand:
    def test_quick_corpus(self, capsys):
        code, out, _ = run(capsys, "corpus", "--seed", "9", "--quick")
        assert code == 0
        assert out.count("PASS") == len(corpus.SUITES)

    @pytest.mark.parametrize("arity", range(4, 11))
    def test_quick_corpus_at_every_arity(self, capsys, arity):
        """Random codes do not grow with the arity, so `corpus --quick`
        passes every suite at arities 4 to 10 within a few seconds (about
        half a second each on a 2-vCPU machine)."""
        start = time.monotonic()
        code, out, _ = run(capsys, "corpus", "--arity", str(arity), "--seed", "1", "--quick")
        assert code == 0
        assert out.count("PASS") == len(corpus.SUITES)
        assert time.monotonic() - start < 5

    def test_failed_cases_fail_their_suite_only(self, capsys, monkeypatch):
        """A suite with failed cases prints FAIL with its pass count, the
        other suites still run and pass, and `corpus` exits 4.  Only the
        commutator identity suite calls `shift_identity_check`."""
        check = witnesses.shift_identity_check
        calls = itertools.count(1)

        def every_third_fails(a, b, region):
            g, ok = check(a, b, region)
            return g, next(calls) % 3 != 0 and ok

        monkeypatch.setattr(witnesses, "shift_identity_check", every_third_fails)
        code, out, _ = run(capsys, "corpus", "--seed", "42", "--quick")
        assert code == cli.EXIT_VERIFY == 4
        assert out.splitlines() == [
            "PASS group laws: 50/50 cases",
            "PASS sigma/decompose2: 50/50 cases",
            "PASS compression: 140/140 cases",
            "FAIL commutator identity: 14/20 cases",
            "PASS monolith witness: 20/20 cases",
            "PASS derived conjugator: 30/30 cases",
            "PASS cover and claims: 41/41 cases",
        ]


def readme_examples():
    """The self-contained `cantorwit ...` lines of README's command-line
    block as (argv, expected stdout or None), each named by its argv.  A
    trailing `# {...}` or `# [...]` comment is the expected stdout.  Lines
    with placeholders, redirections or file arguments are left out, and so
    is `corpus`, which the acceptance tests run."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] == "corpus" or any(arg.isupper() or arg.startswith("[--") or arg == ">"
                                      or arg.endswith(".json") for arg in argv):
            continue
        comment = comment.strip()
        expected = comment + "\n" if comment[:1] in ("{", "[") else None
        examples.append(pytest.param(argv, expected, id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_example(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_OK
    if expected is not None:
        assert out == expected


class TestFuzzing:
    def test_parser_fuzz_only_parse_errors(self):
        import random
        from cantorwit.errors import ParseError
        rng = random.Random(0)
        chars = "01239->{}[],e ab"
        for _ in range(2000):
            s = "".join(rng.choice(chars) for _ in range(rng.randint(0, 18)))
            for fn in (parse_clopen, parse_element):
                try:
                    fn(s)
                except ParseError:
                    pass

    @pytest.mark.parametrize("payload", [
        '{"kind":"normal_word"}',
        '{"kind":"normal_word","base":"{e->e}","letters":[]}',
        '{"kind":"commutator_word","factors":"zzz"}',
        '{"kind":"simple_witness"}',
        '[]',
        '{"kind":"normal_word","arity":"x","base":5,"letters":{}}',
        '{"kind":"unknown_kind"}',
        *('{"kind":"normal_word","base":"{0->1,1->0}","target":"{0->1,1->0}",'
          f'"letters":[{{"conj":"{{e->e}}","exp":{exp}}}]}}'
          for exp in ("1.7", "-1.2", '"1"', "true")),
        '{"kind":"simple_witness","conjugators":[],'
        '"witness":{"kind":"commutator_word","factors":[],"target":"{e->e}"}}',
        *(f'{{"kind":"commutator_word","arity":{arity},"factors":[],"target":"{{e->e}}"}}'
          for arity in ("2.9", '"2"', "2.0", "true", "11", "1", "0", "-3")),
        SIMPLE_WITNESS_ARITY_11,
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
        pytest.param('{"kind":"commutator_word","arity":' + "7" * 5000 + "}",
                     id="integer-of-5000-digits"),
        b'{"kind":"commutator_word","factors":[],"target":"{e->e}\xff"}',
        *('{"kind":"simple_witness","witness":{"kind":"normal_word","base":"{0->1,1->0}",'
          '"letters":[{"conj":"{e->e}","exp":1}],"target":"{0->1,1->0}"},'
          f'"conjugators":{conjugators}}}' for conjugators in ("5", "{}")),
        '{"kind":"simple_witness","witness":{"kind":"normal_word","base":"{0->1,1->0}",'
        '"letters":{},"target":"{0->1,1->0}"},"conjugators":[]}',
        '{"kind":"normal_word","base":"{0->1,1->0}","letters":{},"target":"{e->e}"}',
        '{"kind":"commutator_word","factors":{},"target":"{e->e}"}',
        '{"kind":"simple_witness","witness":{"kind":"normal_word","base":"{0->1,1->0}",'
        '"letters":[]},"conjugators":[]}',
        '{"kind":"simple_witness","witness":{"kind":"normal_word","base":"{0->1,1->0}",'
        '"letters":[],"target":"{e->e}"}}',
        '{"kind":"simple_witness","witness":{"kind":"normal_word","base":"{0->1,1->0}",'
        '"letters":[{"conj":"{e->e}","exp":1}],"target":"{0->1,1->0}"}}',
        '{"kind":"simple_witness","arity":2.9,"witness":{"kind":"normal_word",'
        '"base":"{0->1,1->0}","letters":[],"target":"{e->e}"},"conjugators":[]}',
        '{"kind":"simple_witness","witness":{"kind":"normal_word",'
        '"base":"{00->01,01->10,10->00,11->11}","letters":[{"conj":"{e->e}","exp":-1}],'
        '"target":"{00->01,01->10,10->00,11->11}"},'
        '"conjugators":[{"kind":"commutator_word","factors":[{"x":"{0->"}]}]}',
        '{"kind":"simple_witness","conjugators":[],"witness":{"kind":"simple_witness",'
        '"conjugators":[],"witness":{"kind":"normal_word","base":"{0->1,1->0}",'
        '"letters":[],"target":"{e->e}"}}}',
        pytest.param(simple_proper_with_conjugator_target("{0->1,1->0}"),
                     id="simple-proper-wrong-conjugator-target"),
        pytest.param(SIMPLE_WITNESS_MIXED_ARITIES, id="simple-witness-mixed-arities"),
        *MISTYPED_FIELDS,
    ])
    def test_malformed_certificates_exit_parse(self, capsys, tmp_path, payload):
        path = tmp_path / "fz.json"
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        code, _, err = run(capsys, "verify", str(path))
        assert code == cli.EXIT_PARSE
        if payload in MISTYPED_FIELDS:
            assert err == MISTYPED_FIELDS[payload] + "\n"

    @pytest.mark.parametrize("payload, arity", [
        *((f'{{"kind":"commutator_word","arity":{k},"factors":[],"target":"{{e->e}}"}}', k)
          for k in (11, 1, 0, -3)),
        (SIMPLE_WITNESS_ARITY_11, 11),
    ])
    def test_out_of_range_arity_names_the_range_and_the_value(self, capsys, tmp_path,
                                                              payload, arity):
        path = tmp_path / "arity.json"
        path.write_text(payload)
        assert run(capsys, "verify", str(path)) == (
            cli.EXIT_PARSE, "",
            f"parse error: malformed certificate: arity must be between 2 and 10, got {arity}\n")

    def test_certificate_read_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"kind":"commutator_word","factors":[],"target":"{e->e}"}'))
        assert run(capsys, "verify", "-")[0] == cli.EXIT_OK

    def test_trivial_certificate_verifies(self, capsys, tmp_path):
        path = tmp_path / "triv.json"
        path.write_text('{"kind":"commutator_word","factors":[],"target":"{e->e}"}')
        assert run(capsys, "verify", str(path))[0] == cli.EXIT_OK


def parse_outcome(parse, text, arity):
    try:
        return "value", parse(text, arity)
    except ParseError as exc:
        return "error", str(exc), exc.position


class TestParseElementDifferential:
    """The one-pass element parser against the per-token reference: the
    same value, or a ParseError with the same message and position."""

    MUTATION_CHARS = "0123456789e->{}[], \t\nab"

    @staticmethod
    def assert_same(text, arity=2):
        assert (parse_outcome(parse_element, text, arity)
                == parse_outcome(parse_element_per_token, text, arity)), (text, arity)

    @pytest.mark.parametrize("text", [
        "{}", "{ }", "{e->e}", " { e -> e } ", "{e->ee}", "{ee->e}", "{0e1->1,1->0}",
        "{0->1,1->0,}", "{,0->1,1->0}", "{0->1,,1->0}", "{0->->1,1->0}", "{0->1->0,1->1}",
        "{->}", "{0->,1->0}", "{->1,1->0}", "{0->1,1->0", "0->1,1->0}", "{0->1\n,\t1->0}",
        "{0->1,1->2}", "{0->\u0661,1->0}", "{0->1,1->0}}", "{{0->1,1->0}", "{e->0,e->1}",
        "{0->0,1->1,e->e}", "{0->00,10->01}",
    ])
    def test_edge_cases(self, text):
        self.assert_same(text)

    def test_fuzz_strings(self):
        rng = random.Random(3)
        pieces = list("01239->{}[],e ab") + ["\t", "\n", "->->", ",", "e0", "0e1", "->e"]
        for _ in range(3000):
            body = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
            text = "{" + body + "}" if rng.random() < 0.8 else body
            self.assert_same(text, rng.choice([2, 3, 10]))

    @pytest.mark.parametrize("arity", range(2, 11))
    def test_valid_literals_and_their_mutations(self, arity):
        rng = random.Random(300 + arity)
        alpha = "0123456789"[:arity]
        for _ in range(25):
            g = random_element(rng, arity, 3 if arity <= 4 else 2)
            pairs = []
            for d, r in g.pairs:
                if rng.random() < 0.3:
                    pairs.extend((d + c, r + c) for c in alpha)
                else:
                    pairs.append((d, r))
            sep = rng.choice([",", ", ", " ,\n"])
            text = "{" + sep.join(f"{d or 'e'}->{r or 'e'}" for d, r in pairs) + "}"
            assert parse_element(text, arity) == g
            self.assert_same(text, arity)
            for _ in range(12):
                i = rng.randrange(len(text))
                c = rng.choice(self.MUTATION_CHARS)
                self.assert_same(rng.choice([text[:i] + text[i + 1:], text[:i] + c + text[i + 1:],
                                             text[:i] + c + text[i:]]), arity)
