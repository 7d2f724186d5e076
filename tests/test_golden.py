"""Golden CLI transcripts: byte-exact stdout and exit code of fixed
invocations, so refactors of the constructions cannot silently change what
a user sees.  A failing invocation also pins its stderr (`<name>.err`);
a successful one may print timings there.  Regenerate (only for an intended output change, recorded in
CHANGES.md) with `PYTHONPATH=src python tests/test_golden.py`."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from cantorwit import cli

GOLDEN = Path(__file__).parent / "golden"
NCERT = str(GOLDEN / "ncert.json")
NCERT3 = str(GOLDEN / "ncert_arity3.json")
GCERT = str(GOLDEN / "gcert.json")

# proper union: the round-trip acceptance literals (both supports in [00])
A_PROPER = "{0000->0001,0001->0000,001->001,01->01,1->1}"
B_PROPER = "{00000->00001,00001->00000,0001->0001,001->001,01->01,1->1}"
# full union: supports [0] and [01,1] cover the space
A_FULL = "{00->01,01->00,1->1}"
B_FULL = "{00->00,01->10,10->01,11->11}"
N_MONOLITH = "{00->01,01->10,10->00,11->11}"
N_SIMPLE = "{00->10,01->00,10->01,11->11}"     # [x, y] certified by ncert.json
# the same four invocations at arity 3, on shallow inputs: a and b swap
# sub-cylinders of [00] in the proper union; in the full one a swaps 00 and
# 02 inside [0] and b swaps 02 and 2 inside [02,1,2]
A_PROPER3 = "{000->001,001->000,002->002,01->01,02->02,1->1,2->2}"
B_PROPER3 = "{000->000,001->002,002->001,01->01,02->02,1->1,2->2}"
A_FULL3 = "{00->02,01->01,02->00,1->1,2->2}"
B_FULL3 = "{00->00,01->01,02->2,1->1,2->02}"
N_MONOLITH3 = "{00->01,01->10,10->00,02->02,11->11,12->12,2->2}"
N_SIMPLE3 = "{00->10,01->00,10->01,02->02,11->11,12->12,2->2}"  # certified by ncert_arity3.json

# name -> (argv, exit code)
CASES = {
    "decompose2": (["decompose2", "{0->1,1->0}"], 0),
    "transporter": (["transporter", "[0]", "[11]"], 0),
    "wandering": (["wandering", "[01]"], 0),
    # [0] is not the base cylinder, so g is a proper conjugate of the base
    "wandering_json": (["wandering", "[0]", "--json"], 0),
    "cover3": (["cover3"], 0),
    # the JSON object names its arity, as every other JSON output does
    "cover3_json": (["cover3", "--json"], 0),
    "cover3_json_arity4": (["cover3", "--arity", "4", "--json"], 0),
    "derived_conj": (["derived-conj", "{0->00,10->01,11->1}", "[11]", "--json"], 0),
    "claim1": (["claim1", "[00]", "[01]", "[10]", "--json"], 0),
    "claim2": (["claim2", "{00->01,01->00,10->11,11->10}", "--cert", GCERT, "--json"], 0),
    "claim3": (["claim3", "{0->1,1->0}", "{e->e}"], 0),
    "chain": (["chain", "[00]", "[01]"], 0),
    "monolith_proper": (["monolith-witness", A_PROPER, "[00]", B_PROPER, "[00]",
                         N_MONOLITH, "--json"], 0),
    "monolith_full": (["monolith-witness", A_FULL, "[0]", B_FULL, "[01,1]",
                       N_MONOLITH, "--json"], 0),
    "simple_proper": (["simple-witness", A_PROPER, "[00]", B_PROPER, "[00]",
                       N_SIMPLE, "--n-cert", NCERT, "--json"], 0),
    "simple_full": (["simple-witness", A_FULL, "[0]", B_FULL, "[01,1]",
                     N_SIMPLE, "--n-cert", NCERT, "--json"], 0),
    "monolith_proper_arity3": (["monolith-witness", "--arity", "3", A_PROPER3, "[00]",
                                B_PROPER3, "[00]", N_MONOLITH3, "--json"], 0),
    "monolith_full_arity3": (["monolith-witness", "--arity", "3", A_FULL3, "[0]",
                              B_FULL3, "[02,1,2]", N_MONOLITH3, "--json"], 0),
    "simple_proper_arity3": (["simple-witness", "--arity", "3", A_PROPER3, "[00]",
                              B_PROPER3, "[00]", N_SIMPLE3, "--n-cert", NCERT3, "--json"], 0),
    "simple_full_arity3": (["simple-witness", "--arity", "3", A_FULL3, "[0]",
                            B_FULL3, "[02,1,2]", N_SIMPLE3, "--n-cert", NCERT3, "--json"], 0),
    "corpus_quick": (["corpus", "--seed", "42", "--quick"], 0),
    "corpus_quick_arity3": (["corpus", "--arity", "3", "--seed", "42", "--quick"], 0),
    "reduce": (["reduce", "{000->100,001->101,01->11,10->00,11->01}"], 0),
    "reduce_arity3": (["reduce", "--arity", "3", "{00->10,01->11,02->12,1->0,2->2}"], 0),
    "compose": (["compose", "{0->1,1->0}", "{00->01,01->00,1->1}", "{0->10,10->0,11->11}"], 0),
    "compose_arity3": (["compose", "--arity", "3", "{0->1,1->2,2->0}",
                        "{00->01,01->00,02->02,1->1,2->2}"], 0),
    "sigma": (["sigma", "{0->1,1->0}", "[00]"], 0),
    "sigma_overlap": (["sigma", "{00->01,01->10,10->00,11->11}", "[00,011]"], 3),
    "join_compress": (["join-compress", "[00]", "[01]"], 0),
    "join_compress_split": (["join-compress", "[00,110]", "[01]"], 0),
    "verify_derived_conj": (["verify", str(GOLDEN / "derived_conj.txt")], 0),
    "verify_monolith_full": (["verify", str(GOLDEN / "monolith_full.txt")], 0),
    "verify_simple_full": (["verify", str(GOLDEN / "simple_full.txt")], 0),
    "verify_monolith_proper_arity3": (["verify", str(GOLDEN / "monolith_proper_arity3.txt")], 0),
    "verify_monolith_full_arity3": (["verify", str(GOLDEN / "monolith_full_arity3.txt")], 0),
    "verify_simple_proper_arity3": (["verify", str(GOLDEN / "simple_proper_arity3.txt")], 0),
    "verify_simple_full_arity3": (["verify", str(GOLDEN / "simple_full_arity3.txt")], 0),
    # the simple witnesses as written before the `elements` list, every
    # factor literal inline: each prints what its counterpart above prints
    **{f"verify_{name}_inline": (["verify", str(GOLDEN / f"{name}_inline.json")], 0)
       for name in ("simple_proper", "simple_full", "simple_proper_arity3",
                    "simple_full_arity3")},
    # derived_conj.txt with its target spaced, reordered and one pair split:
    # the same stdout as verify_derived_conj
    "verify_noncanonical_target": (["verify", str(GOLDEN / "noncanonical_target.json")], 0),
    "reduce_incomplete_domain": (["reduce", "{00->00,011->01,1->1}"], 2),
    "reduce_arity3_incomplete_range": (["reduce", "--arity", "3",
                                        "{00->00,01->01,02->02,1->10,2->2}"], 2),
    "reduce_overlapping_domain": (["reduce", "{0->0,01->10,1->11}"], 2),
    "wandering_arity3": (["wandering", "--arity", "3", "[01]"], 0),
    # the other output form of the invocations above
    "decompose2_json": (["decompose2", "{0->1,1->0}", "--json"], 0),
    "chain_json": (["chain", "[00]", "[01]", "--json"], 0),
    "claim3_json": (["claim3", "{0->1,1->0}", "{e->e}", "--json"], 0),
    "claim2_json": (["claim2", "{00->01,01->00,10->11,11->10}", "--json"], 0),
    "claim1_text": (["claim1", "[00]", "[01]", "[10]"], 0),
    "claim2_text": (["claim2", "{00->01,01->00,10->11,11->10}", "--cert", GCERT], 0),
    "derived_conj_text": (["derived-conj", "{0->00,10->01,11->1}", "[11]"], 0),
    "monolith_full_text": (["monolith-witness", A_FULL, "[0]", B_FULL, "[01,1]", N_MONOLITH], 0),
    "simple_full_text": (["simple-witness", A_FULL, "[0]", B_FULL, "[01,1]", N_SIMPLE,
                          "--n-cert", NCERT], 0),
}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    argv, expected_code = CASES[name]
    code, out, err = _run(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if expected_code:
        assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


# the --json goldens, and those of the commands that emit a certificate
JSON_CASES = sorted(name for name, (argv, _) in CASES.items() if "--json" in argv)
CERTIFYING = [name for name in JSON_CASES
              if CASES[name][0][0] in ("monolith-witness", "simple-witness", "derived-conj",
                                       "claim1", "claim2")]
WRITERS = ("dumps_commutator_word", "dumps_normal_word", "dumps_simple_witness",
           "dumps_certificate")


def _unprinted(*args, **kwargs):
    raise AssertionError("built output that is not printed")


@pytest.mark.parametrize("name", JSON_CASES)
def test_only_the_printed_output_is_built(name, monkeypatch):
    """Under --json no text lines are built (`_word_lines` raises), and
    without it no JSON text (every writer the CLI calls raises); each run
    prints what it prints unpatched, the golden under --json."""
    argv, _ = CASES[name]
    text_argv = [arg for arg in argv if arg != "--json"]
    code, text, _ = _run(text_argv)
    assert code == 0 and "--json" in argv
    with monkeypatch.context() as m:
        m.setattr(cli, "_word_lines", _unprinted)
        assert _run(argv)[:2] == (0, (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"))
        if argv[0].endswith("-witness"):
            with pytest.raises(AssertionError, match="not printed"):
                _run(text_argv)
    with monkeypatch.context() as m:
        for writer in WRITERS:
            m.setattr(cli, writer, _unprinted)
        assert _run(text_argv)[:2] == (0, text)
        with pytest.raises(AssertionError, match="not printed"):
            _run(argv)


def test_noncanonical_target_prints_the_canonical_value():
    assert ((GOLDEN / "verify_noncanonical_target.txt").read_bytes()
            == (GOLDEN / "verify_derived_conj.txt").read_bytes())


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith("_inline")))
def test_inline_file_verifies_as_its_counterpart(name):
    counterpart = GOLDEN / (name.removeprefix("verify_").removesuffix("_inline") + ".txt")
    assert (GOLDEN / f"{name}.txt").read_text() == _run(["verify", str(counterpart)])[1]


if __name__ == "__main__":
    for name, (argv, expected_code) in CASES.items():
        code, out, err = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
        if expected_code:
            (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")
