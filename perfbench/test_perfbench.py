"""Self-checks of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q

They start the benchmark in subprocesses with short runs; the whole file
takes a couple of minutes.
"""
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W                      # noqa: E402
from reference import MAX_WORLDS, Reference  # noqa: E402
from pasl.config import preset               # noqa: E402
from pasl.formula import parse, prop_names   # noqa: E402
from pasl.oracle import enumerate_frames, find_countermodel  # noqa: E402


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=600)


def _counters(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("SEPARATA_SEED", None)
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert json.loads(lines[-1])["correct"]
    (line,) = [ln for ln in lines if ln.startswith("# counters ")]
    return json.loads(line[len("# counters "):])


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_counters_repeat_under_other_hash_seeds(workload):
    # rule applications per rule, calls per layer, proof nodes, replays
    # and verdicts (exhausted limits included) must not depend on hashing
    first, second = _counters(workload, 0), _counters(workload, 1)
    assert first["rules"] and first["calls"]["calculus.expand"] > 0
    assert first == second


def test_reference_agrees_with_the_oracle():
    ref = Reference(enumerate_frames, prop_names)
    for logic in W.FLEET_LOGICS + W.REFUTE_LOGICS:
        cfg = preset(logic)
        rng = random.Random("reference/" + logic)
        for _ in range(30):
            f = parse(W.fleet_formula(rng))
            want = find_countermodel(f, cfg, MAX_WORLDS) is not None
            assert ref.refutable(f, cfg) == want, (logic, str(f))
    assert ref.refutable(parse(W.NEGATIVE_CONTROL), preset("pasl"))


def test_generator_matches_the_acceptance_test():
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("acceptance", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(200):
        assert parse(W.random_formula(ours, 3)) is acceptance.random_formula(theirs, 3)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    from pasl.cli import load_corpus
    ref = Reference(enumerate_frames, prop_names)

    def build(seed):
        return W.build(workload, seed, os.path.join(ROOT, "src", "pasl", "data"),
                       load_corpus, lambda text, logic: ref.refutable(parse(text), preset(logic)))
    assert build(4) == build(4)
    assert build(4) != build(5)


def test_a_theorem_must_end_valid():
    import run
    pasl = run.import_pasl()
    (item,) = run.setup(pasl, [W.Input("t", "bbi", "a -> a", W.DEFAULT, W.THEOREM)])
    for outcome in ("NotProved", "ResourceExhausted:rule applications", "cut",
                    "raised:RecursionError"):
        wrong = run.verify(pasl, [item], [[run.Row(outcome, 0.0, 0.0, 0.0)]])
        assert wrong == ["t: theorem ended %s" % outcome]
    assert run.verify(pasl, [item], [[run.Row("Valid", 0.0, 0.0, 0.0)]]) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "fleet", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
