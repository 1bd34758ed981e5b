"""Command line interface."""
import pytest

from pasl import cli
from pasl.cli import load_corpus, main
from pasl.formula import parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prove_valid(capsys):
    code, out, _ = run(capsys, "prove", "a -> a")
    assert code == 0
    assert out.strip() == "Valid"


def test_prove_with_proof_output(capsys):
    code, out, _ = run(capsys, "prove", "a -> a", "--proof", "tree")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Valid"
    assert lines[1].startswith("[->R]")
    assert any("[id]" in ln for ln in lines)


def test_prove_not_proved(capsys):
    code, out, _ = run(capsys, "prove", "a -> a * a")
    assert code == 1
    assert out.startswith("NotProved")
    assert "open branch:" in out


def test_prove_countermodel_search(capsys):
    code, out, _ = run(capsys, "prove", "a -> a * a", "--countermodel-search", "2")
    assert code == 1
    assert "countermodel:" in out
    assert "worlds 2" in out


def test_prove_exhausted(capsys):
    code, out, _ = run(capsys, "prove", "emp /\\ (a * b) -> a", "--logic", "pasl",
                       "--max-apps", "200")
    assert code == 2
    assert out.startswith("ResourceExhausted")


def test_prove_logic_choice(capsys):
    code, out, _ = run(capsys, "prove", "emp /\\ (a * b) -> a", "--logic", "bbi+iu")
    assert code == 0


def test_error_exits(capsys):
    code, _, err = run(capsys, "prove", "a ->")
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "prove", "a", "--logic", "nope")
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "prove", "x |-> y", "--logic", "bbi")
    assert code == 3


def test_deep_nesting_exits_as_error(capsys):
    # the recursive parser runs out of stack: an error, not a verdict
    code, out, err = run(capsys, "prove", "~" * 3000 + "a")
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_bench_ok_and_mismatch(tmp_path, capsys):
    corpus = tmp_path / "c.corpus"
    corpus.write_text(
        "# comment\n"
        "ok-1\tbbi\tValid\ta -> a\n"
        "ok-2\tbbi\tNotValid\ta -> a * a\n")
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 0
    assert "2/2 expectations matched" in out

    corpus.write_text("bad-1\tbbi\tValid\ta -> a * a\n")
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 1
    assert "MISMATCH" in out


def test_bench_row_error_continues(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.corpus"
    corpus.write_text(
        "ok-1\tbbi\tValid\ta -> a\n"
        "boom\tbbi\tValid\tb -> b\n"
        "ok-2\tbbi\tNotValid\ta -> a * a\n")
    real = cli.prove

    def prove(goal, cfg, limits):
        if goal is parse("b -> b"):
            raise RuntimeError("search broke")
        return real(goal, cfg, limits)

    monkeypatch.setattr(cli, "prove", prove)
    code, out, err = run(capsys, "bench", str(corpus))
    assert code == 3
    rows = out.splitlines()
    assert [r.split()[0] for r in rows[:3]] == ["ok-1", "boom", "ok-2"]
    assert rows[1].split()[2] == "error" and rows[1].endswith("MISMATCH")
    assert "2/3 expectations matched" in out
    assert err.startswith("error: boom: RuntimeError: search broke [test_cli.py:")
    assert len(err.splitlines()) == 1


def test_load_corpus_rejects_malformed(tmp_path):
    p = tmp_path / "c.corpus"
    p.write_text("x\tbbi\tValid\n")
    with pytest.raises(ValueError):
        load_corpus(str(p))
    p.write_text("x\tbbi\tMaybe\ta\n")
    with pytest.raises(ValueError):
        load_corpus(str(p))


def test_check_model(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(
        "worlds 2\neps 0\n"
        "rel 0 0 0\nrel 0 1 1\nrel 1 0 1\nrel 1 1 0\n"
        "val a 1\n"
        "falsified_at 0\n")
    # no --world: evaluate at the recorded falsified_at world
    code, out, _ = run(capsys, "check-model", str(model), "a * a")
    assert code == 0
    assert out.strip().endswith("true")           # 1+1=0, a holds at 1
    code, out, _ = run(capsys, "check-model", str(model), "a * a", "--world", "1")
    assert code == 0
    assert out.strip().endswith("false")
    # the frame violates indivisible units, so stricter logics reject it
    code, _, err = run(capsys, "check-model", str(model), "a", "--logic", "bbi+iu")
    assert code == 3 and "frame conditions" in err


def test_shipped_corpora_load():
    import os
    import pasl
    d = os.path.join(os.path.dirname(pasl.__file__), "data")
    t1 = load_corpus(os.path.join(d, "table1.corpus"))
    t2 = load_corpus(os.path.join(d, "table2.corpus"))
    assert len(t1) == 19
    assert len(t2) == 6
    assert all(e.expected == "Valid" for e in t1 + t2)
