"""Command line interface."""
import pytest

from pasl import cli, countermodel, oracle
from pasl.cli import load_corpus, main
from pasl.config import preset
from pasl.formula import parse
from pasl.search import prove


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


GOLDEN = {"text": """\
Valid
[->R]  |- a1: a -> emp * a
[U] a1: a |- a1: emp * a
[E] (a1,e |> a1) ; a1: a |- a1: emp * a
[*R] (a1,e |> a1); (e,a1 |> a1) ; a1: a |- a1: emp * a
[empR] (a1,e |> a1); (e,a1 |> a1) ; a1: a |- e: emp, a1: emp * a
[id] (a1,e |> a1); (e,a1 |> a1) ; a1: a |- a1: a, a1: emp * a
""", "tree": """\
Valid
[->R]  |- a1: a -> emp * a
  [U] a1: a |- a1: emp * a
    [E] (a1,e |> a1) ; a1: a |- a1: emp * a
      [*R] (a1,e |> a1); (e,a1 |> a1) ; a1: a |- a1: emp * a
        [empR] (a1,e |> a1); (e,a1 |> a1) ; a1: a |- e: emp, a1: emp * a
        [id] (a1,e |> a1); (e,a1 |> a1) ; a1: a |- a1: a, a1: emp * a
"""}


@pytest.mark.parametrize("style", ["text", "tree"])
def test_proof_output_format(capsys, style):
    # one line per rule instance, depth first, premises in order; the tree
    # indents each premise one level below its conclusion
    code, out, err = run(capsys, "prove", "a -> (emp * a)", "--proof", style)
    assert code == 0 and err == ""
    assert out == GOLDEN[style]


def test_deep_proof_prints(capsys):
    # a proof whose branches nest past Python's recursion limit
    f = "~(true -* ~emp) * ~(true -* ~emp) -> ~(true -* ~emp)"
    steps = prove(parse(f), preset("bbi+p")).proof.rule_count()
    code, out, _ = run(capsys, "prove", f, "--logic", "bbi+p", "--proof", "text")
    assert code == 0
    assert len(out.splitlines()) == steps + 1


def test_deep_goal_proof_prints(capsys):
    # printing a formula needs no recursion either
    f = "a -> " + " /\\ ".join(["a"] * 1500)
    code, out, err = run(capsys, "prove", f, "--proof", "text")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3001


def test_unprintable_proof_leaves_no_verdict(capsys, monkeypatch):
    # the error must not follow a verdict already on stdout
    def unprintable(seq):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "format_sequent", unprintable)
    code, out, err = run(capsys, "prove", "a -> a", "--proof", "text")
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "in unprintable]" in err


def test_prove_not_proved(capsys):
    code, out, _ = run(capsys, "prove", "a -> a * a")
    assert code == 1
    assert out.startswith("NotProved")
    assert "open branch:" in out


def test_prove_countermodel_search(tmp_path, capsys):
    # the model prove prints passes check-model, false at the printed world;
    # the bbi+s formula's search ends by blocking S, the bbi+cs one's by
    # blocking CS, on a model that completion made a frame
    for formula, logic in [("a -> a * a", "bbi"), ("b -> ((~a * a) \\/ emp)", "bbi+s"),
                           ("true -> (b -> ~(true * a))", "bbi+cs")]:
        code, out, _ = run(capsys, "prove", formula, "--logic", logic)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "NotProved" and lines[1].startswith("open branch:")
        assert lines[2] == "countermodel:"
        assert lines[-1].startswith("falsified_at ")
        model = tmp_path / "m.model"
        model.write_text("\n".join(lines[3:]) + "\n")
        code, out, err = run(capsys, "check-model", str(model), formula,
                             "--logic", logic)
        assert code == 0 and err == ""
        assert out.strip().endswith(": false")


def test_prove_reports_an_uncertified_open_branch(capsys, monkeypatch):
    monkeypatch.setattr(countermodel, "check_conditions", lambda rel, n, cfg: False)
    code, out, _ = run(capsys, "prove", "a -> a * a")
    assert code == 1
    assert out.splitlines()[2] == "countermodel: none certified from the open branch"


def test_check_model_deep_formula(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("worlds 1\neps 0\nrel 0 0 0\nval a 0\n")
    f = " /\\ ".join(["a"] * 1500)
    code, out, err = run(capsys, "check-model", str(model), f)
    assert code == 0 and err == ""
    assert out.endswith("@ 0: true\n")


def test_prove_exhausted(capsys):
    # a pasl theorem whose search takes 1,373 rule applications, more
    # than the budget
    f = "(a1 * (a2 * (a3 * (a4 * (a5 * a6))))) -> (a6 * (a5 * (a4 * (a3 * (a2 * a1)))))"
    code, out, _ = run(capsys, "prove", f, "--logic", "pasl", "--max-apps", "200")
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


def test_deep_nesting_exits_as_error(capsys, monkeypatch):
    # a search that runs out of stack is an error, not a verdict
    def too_deep(goal, cfg, limits):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "prove", too_deep)
    code, out, err = run(capsys, "prove", "a -> a")
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "in too_deep]" in err


def test_deep_nesting_is_decided(capsys):
    # the parser and the formula walkers need no recursion: long runs of
    # ~ and parentheses, and a heap formula under 3,000 ~, get a verdict
    code, out, _ = run(capsys, "prove", "~" * 5000 + "a")
    assert code == 1 and out.startswith("NotProved")
    code, out, _ = run(capsys, "prove", "(" * 3000 + "a -> a" + ")" * 3000)
    assert code == 0 and out.startswith("Valid")
    f = "exists x. " + "~" * 3000 + "(x |-> y)"
    code, out, _ = run(capsys, "prove", f, "--logic", "separata+")
    assert code == 1 and out.startswith("NotProved")
    code, out, _ = run(capsys, "prove", "(%s) -> (%s)" % (f, f), "--logic", "separata+")
    assert code == 0 and out.startswith("Valid")


def test_bench_ok_and_mismatch(tmp_path, capsys):
    corpus = tmp_path / "c.corpus"
    corpus.write_text(
        "# comment\n"
        "ok-1\tbbi\tValid\ta -> a\n"
        "ok-2\tbbi\tNotValid\ta -> a * a\n")
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 0
    assert "2/2 expectations matched" in out
    # a Valid row gives its proof size before ok or MISMATCH, other rows "-"
    rows = [r.split() for r in out.splitlines()[:2]]
    assert rows[0][2:] == ["Valid", rows[0][3], "2", "ok"]     # ->R, id
    assert rows[1][2:] == ["NotProved", rows[1][3], "-", "ok"]

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


def test_check_model_without_unit_atoms_builds_no_table(tmp_path, capsys, monkeypatch):
    # a model with no unit atom (a, 0, a) is no frame, and saying so must
    # not first build its composition table of worlds^2 entries
    def no_table(rel, n):
        raise AssertionError("composition table of %d worlds built" % n)

    monkeypatch.setattr(oracle, "_table", no_table)
    model = tmp_path / "m.model"
    model.write_text("worlds 100000\neps 0\n")
    code, out, err = run(capsys, "check-model", str(model), "a")
    assert code == 3 and out == ""
    assert "frame conditions" in err and len(err.splitlines()) == 1


def test_out_of_memory_exits_as_error(tmp_path, capsys, monkeypatch):
    # running out of memory is an error, not a verdict
    def too_big(text):
        raise MemoryError()

    monkeypatch.setattr(cli, "parse_model", too_big)
    model = tmp_path / "m.model"
    model.write_text("worlds 1\neps 0\nrel 0 0 0\n")
    code, out, err = run(capsys, "check-model", str(model), "a")
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "in too_big]" in err


@pytest.mark.parametrize("extra,argv", [
    ("", ["--world", "2"]),
    ("", ["--world", "-1"]),
    ("val b 7\n", []),
    ("rel 1 2 2\n", []),
    ("falsified_at 2\n", []),
    ("rel 1 1\n", []),
])
def test_check_model_rejects_worlds_outside_the_model(tmp_path, capsys, extra, argv):
    model = tmp_path / "m.model"
    model.write_text("worlds 2\neps 0\nrel 0 0 0\nrel 0 1 1\nrel 1 0 1\n"
                     "val a 1\n" + extra)
    code, out, err = run(capsys, "check-model", str(model), "a", *argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_shipped_corpora_load():
    import os
    import pasl
    d = os.path.join(os.path.dirname(pasl.__file__), "data")
    t1 = load_corpus(os.path.join(d, "table1.corpus"))
    t2 = load_corpus(os.path.join(d, "table2.corpus"))
    assert len(t1) == 19
    assert len(t2) == 6
    assert all(e.expected == "Valid" for e in t1 + t2)
    # each row is parsed once, when it is loaded
    assert all(e.goal is parse(e.formula) for e in t1 + t2)
