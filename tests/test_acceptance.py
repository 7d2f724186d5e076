"""Acceptance suite: one test per criterion, exact equality everywhere,
seeded corpora at the stated scales, each printing a PASS/FAIL line with
its runtime (run with -s to see them)."""

import json
import time

import pytest

from cantorwit import cli
from cantorwit import corpus
from cantorwit.literals import parse_element
from cantorwit.witnesses import commutator


def _report(name, ok, seconds, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {seconds:.2f}s (budget {budget}s)")
    assert ok, name
    assert seconds < budget, f"{name} exceeded its {budget}s budget ({seconds:.2f}s)"


# PASS-line label and budget in seconds of criteria 1-7, one per corpus suite,
# each run at full scale on seed 101 + its index.
SUITE_CRITERIA = (
    ("group laws (500 elements)", 5),
    ("sigma/decompose2 (500 elements)", 5),
    ("compression (1000+200+200 cases)", 10),
    ("commutator identity (200 cases)", 5),
    ("monolith witness (200 cases, both branches)", 20),
    ("derived conjugator (300 cases)", 10),
    ("cover-3 and claims 1-3 (1+100+200+100 cases)", 20),
)


@pytest.mark.parametrize("index", range(len(corpus.SUITES)),
                         ids=lambda i: f"criterion_{i + 1}")
def test_corpus_suite_criteria(index):
    label, budget = SUITE_CRITERIA[index]
    start = time.monotonic()
    res = corpus.run_suite(index, seed=101 + index)
    _report(f"criterion {index + 1}: {label}", res.ok, time.monotonic() - start, budget)


def test_criterion_8_certificate_roundtrip(capsys, tmp_path):
    start = time.monotonic()
    ok = True

    def cli_run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    def verify_obj(obj, expect):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        code = cli.main(["verify", str(path)])
        capsys.readouterr()
        return code == expect

    a_text = "{0000->0001,0001->0000,001->001,01->01,1->1}"
    b_text = "{00000->00001,00001->00000,0001->0001,001->001,01->01,1->1}"
    n_text = "{00->01,01->10,10->00,11->11}"  # 3-cycle, not an involution

    # normal_word: emit, verify, then flip one exponent
    code, out = cli_run("monolith-witness", a_text, "[00]", b_text, "[00]",
                        n_text, "--json")
    ok = ok and code == 0
    word_obj = json.loads(out)
    ok = ok and verify_obj(word_obj, cli.EXIT_OK)
    tampered = json.loads(out)
    tampered["letters"][0]["exp"] = -tampered["letters"][0]["exp"]
    ok = ok and verify_obj(tampered, cli.EXIT_VERIFY)

    # commutator_word: derived-conj and claim1 emissions, then drop a factor
    code, out = cli_run("derived-conj", "{0->00,10->01,11->1}", "[11]", "--json")
    ok = ok and code == 0
    conj_obj = json.loads(out)
    ok = ok and verify_obj(conj_obj, cli.EXIT_OK)
    tampered = json.loads(out)
    tampered["factors"] = tampered["factors"][:1]
    ok = ok and verify_obj(tampered, cli.EXIT_VERIFY)

    code, out = cli_run("claim1", "[00]", "[01]", "[10]", "--json")
    ok = ok and code == 0 and verify_obj(json.loads(out), cli.EXIT_OK)

    # claim2 with a certified input: every embedded factor certificate verifies
    gcert_path = tmp_path / "gcert.json"
    gcert_path.write_text(json.dumps({
        "kind": "commutator_word", "arity": 2,
        "factors": [{"x": "{0->1,1->0}", "y": "{00->01,01->00,1->1}"}],
    }))
    code, out = cli_run("claim2", str(commutator(parse_element("{0->1,1->0}"),
                                                 parse_element("{00->01,01->00,1->1}"))),
                        "--cert", str(gcert_path), "--json")
    ok = ok and code == 0
    for cert_obj in json.loads(out)["certs"]:
        ok = ok and verify_obj(cert_obj, cli.EXIT_OK)

    # simple_witness: emit, verify, then blank one conjugator certificate
    ncert_path = tmp_path / "ncert.json"
    ncert_path.write_text(json.dumps({
        "kind": "commutator_word", "arity": 2,
        "factors": [{"x": "{00->01,01->00,1->1}", "y": "{01->10,10->01,00->00,11->11}"}],
    }))
    n2 = parse_element("{00->01,01->00,1->1}") * parse_element("{01->10,10->01,00->00,11->11}")
    n2 = n2 * parse_element("{00->01,01->00,1->1}").inverse() \
        * parse_element("{01->10,10->01,00->00,11->11}").inverse()
    code, out = cli_run("simple-witness", a_text, "[00]", b_text, "[00]",
                        str(n2), "--n-cert", str(ncert_path), "--json")
    ok = ok and code == 0
    simple_obj = json.loads(out)
    ok = ok and verify_obj(simple_obj, cli.EXIT_OK)
    tampered = json.loads(out)
    tampered["conjugators"][0]["factors"] = []
    ok = ok and verify_obj(tampered, cli.EXIT_VERIFY)

    _report("criterion 8: certificate round-trip with mutations", ok,
            time.monotonic() - start, 5)
