"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
LIB = run.load_library(run.ROOT)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    """Short loops and a single set-up, so a whole run takes seconds."""
    monkeypatch.setattr(run, "MIN_OPS", 20)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.fixture
def small(monkeypatch):
    """Workloads with a tenth of their inputs or fewer."""
    for name, value in (("MONOLITH", 1), ("SIMPLE", 1), ("DERIVED", 3), ("CLAIM1", 1),
                        ("CLAIM2", 1), ("LONG", 2)):
        monkeypatch.setattr(workloads.Verify, name, value)
    monkeypatch.setattr(workloads.Witness, "ROUNDS", 1)
    monkeypatch.setattr(workloads.Algebra, "ITEMS", 5)


def result_of(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_synthetic_tree():
    # a [0, 10] has children b [1, 4] and c [5, 9]; b has child d [2, 3].
    tree = [(3, "clopen.canonicalize", 2.0, 3.0, 1, 0),
            (1, "prefixmap.mul", 1.0, 4.0, 0, 0),
            (2, "prefixmap.mul", 5.0, 9.0, 0, 0),
            (0, "cli.main", 0.0, 10.0, -1, 0)]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0}
    metrics = spans.layer_metrics(tree, {})
    assert metrics["prefixmap.mul.calls"] == 2
    assert metrics["prefixmap.mul.self_s"] == 6.0
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["clopen.canonicalize.self_s"] == 1.0


def test_self_check_is_split_from_build_time():
    # simple_witness [0, 10]: a derived_conjugator [1, 3] with its own
    # evaluate [2, 3] (construction), then a direct evaluate [4, 8] (check).
    tree = [(2, "witnesses.CommutatorWord.evaluate", 2.0, 3.0, 1, 0),
            (1, "witnesses.derived_conjugator", 1.0, 3.0, 0, 0),
            (4, "witnesses.commutator", 5.0, 6.0, 3, 0),
            (3, "witnesses.NormalWord.evaluate", 4.0, 8.0, 0, 0),
            (0, "witnesses.simple_witness", 0.0, 10.0, -1, 0)]
    metrics = spans.layer_metrics(tree, {})
    assert metrics["witnesses.selfcheck_s"] == 4.0
    assert metrics["witnesses.build_s"] == 6.0


def _bindings():
    """Every function the package exposes under any name, by identity."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "cantorwit" or key.startswith("cantorwit."):
            for attr, value in vars(mod).items():
                out[(key, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("cantorwit"):
                    for name, member in vars(value).items():
                        out[(key, attr, name)] = member
    return out


def test_tracer_rebinds_and_restores_every_binding(tmp_path, small):
    before = _bindings()
    mul = LIB.prefixmap.PrefixMap.__mul__
    with spans.Tracer() as tracer:
        assert LIB.prefixmap.PrefixMap.__mul__ is not mul
        assert LIB.cli.verify_certificate is not before[("cantorwit.witnesses",
                                                         "verify_certificate")]
        assert LIB.compression.sigma_swap is LIB.prefixmap.sigma_swap
        tracer.on = True
        LIB.literals.parse_element("{0->1,1->0}") * LIB.literals.parse_element("{0->1,1->0}")
        tracer.on = False
    names = {s[1] for s in tracer.spans}
    assert {"literals.parse_element", "prefixmap.from_pairs", "prefixmap.mul",
            "clopen.canonicalize"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    # a later untraced loop records nothing and runs the original functions
    count = len(tracer.spans)
    loop = run.measure(workloads.Algebra(LIB, 1, tmp_path), 0.0)
    assert len(tracer.spans) == count
    assert loop.verdicts == {"ok": len(loop.times)}


# ---------------------------------------------------------------------------
# checks


def test_verify_fixtures_have_expected_codes(tmp_path, quick, small):
    work = workloads.Verify(LIB, 1, tmp_path)
    kinds = {item.kind.split("/")[0] for item in work.items}
    assert kinds == {"monolith", "malformed", "simple", "derived", "claim1", "claim2", "long"}
    loop = run.measure(work, 0.0)
    known = sum(1 for item in work.items if item.defect)
    assert known == len(workloads.KNOWN_DEFECTS)
    assert loop.verdicts["failed"] == 0
    assert loop.verdicts["known"] * len(work.items) == known * len(loop.times)
    # a file counts its bytes whether its verdict is right, wrong or raised
    assert loop.sizes == [item.size for item in work.items]


def test_wrong_verdict_raises_error_rate(tmp_path, quick, small, monkeypatch):
    work = workloads.Verify(LIB, 1, tmp_path)
    baseline = run.measure(work, 0.0)

    def accept_anything(obj, arity=2):
        return LIB.literals.parse_element(obj.get("target", "{e->e}"), arity)

    monkeypatch.setattr(LIB.cli, "verify_certificate", accept_anything)
    sabotaged = run.measure(work, 0.0)
    assert sabotaged.verdicts["failed"] > baseline.verdicts["failed"] == 0
    assert run.end_to_end(sabotaged, 0.0)["ok_rate"] < run.end_to_end(baseline, 0.0)["ok_rate"]


def test_wrong_output_raises_error_rate(tmp_path, quick, small, monkeypatch):
    work = workloads.Witness(LIB, 1, tmp_path)
    real = LIB.witnesses.monolith_witness

    def one_letter_short(*args):
        word = real(*args)
        return type(word)(word.base, word.letters[1:])

    monkeypatch.setattr(LIB.witnesses, "monolith_witness", one_letter_short)
    loop = run.measure(work, 0.0)
    monoliths = sum(1 for item in work.items if item.kind == "monolith")
    assert loop.verdicts["failed"] == monoliths * len(loop.times) // len(work.items)


# ---------------------------------------------------------------------------
# end to end


def test_seed_changes_inputs_not_metric_names(capsys, quick, small, tmp_path):
    first = workloads.Algebra(LIB, 1, tmp_path)
    second = workloads.Algebra(LIB, 2, tmp_path)
    assert [i.word for i in first.items] != [i.word for i in second.items]
    expected = [m["name"] for m in BENCHMARK["end_to_end"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    digests = set()
    for seed in (1, 2):
        info, result = result_of(capsys, "--workload", "algebra", "--seed", str(seed),
                                 "--seconds", "0", "--trace", "0")
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == expected
        assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
        digests.add(info["digest"])
    assert len(digests) == 2


def test_traced_run_reports_every_layer_metric(capsys, quick):
    _info, result = result_of(capsys, "--workload", "algebra", "--seed", "3",
                              "--seconds", "0", "--trace", "1")
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["prefixmap.mul.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert result["metrics"]["witnesses.monolith_witness.calls"]["value"] == 0


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in BENCHMARK["end_to_end"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == spans.per_layer_names()
    assert all(m["unit"] == spans.unit(m["name"]) for m in BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "witness",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verify_fixtures_do_not_depend_on_earlier_fixtures(tmp_path, small, monkeypatch):
    # One more monolith source takes more draws; the later fixtures stay the same.
    def texts(work):
        return [Path(i.path).read_text() for i in work.items if not i.kind.startswith(
            ("monolith", "malformed/exp"))]

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = texts(workloads.Verify(LIB, 1, tmp_path / "a"))
    monkeypatch.setattr(workloads.Verify, "MONOLITH", 2)
    second = texts(workloads.Verify(LIB, 1, tmp_path / "b"))
    assert first == second
