"""The model of an open branch: merged, normalized, completed, checked."""
import pytest

from pasl.config import preset
from pasl.countermodel import branch_countermodel
from pasl.formula import parse
from pasl.oracle import FrameModel, check_conditions, enumerate_frames, satisfies
from pasl.sequent import Sequent
from pasl.unify import find_redex
from test_oracle import LOGICS

BBI = preset("bbi")
BBI_IU = preset("bbi+iu")

A, B = parse("a"), parse("b")


def units(n):
    return frozenset({(a, 0, a) for a in range(n)} | {(0, a, a) for a in range(n)})


def certified(got, cfg, goal):
    """got, a (model, world) pair, is a frame of cfg where goal fails."""
    model, world = got
    assert check_conditions(model.rel, model.size, cfg)
    assert not satisfies(model, world, goal)
    return got


# -- identifying the labels a logic forces to be equal -----------------------

@pytest.mark.parametrize("name", LOGICS)
def test_frames_are_left_alone(name):
    # a frame has no redex, so a branch that is a frame is its own model
    cfg = preset(name)
    for n in (1, 2, 3):
        for rel in enumerate_frames(n, cfg):
            seq = Sequent(rel=tuple(sorted(rel)), gamma=((n - 1, A),))
            assert find_redex(seq, cfg) is None
            if not cfg.heap_extension:
                model, _ = branch_countermodel(seq, {}, parse("~a"), cfg)
                assert model == FrameModel(n, rel, {"a": frozenset({n - 1})})


def test_partial_determinism_merges_the_results_of_one_sum():
    # 1 + 1 is both 1 and 2: one world under partial determinism, where
    # both a, carried by 1, and b, carried by 2, hold
    seq = Sequent(rel=((1, 1, 1), (1, 1, 2)), gamma=((1, A), (2, B)))
    goal = parse("~a")
    cfg = preset("bbi+p")
    model, world = certified(branch_countermodel(seq, {}, goal, cfg), cfg, goal)
    assert world == 1
    assert model == FrameModel(2, units(2) | {(1, 1, 1)},
                               {"a": frozenset({1}), "b": frozenset({1})})


def test_cancellativity_merges_the_addends():
    # 1 + 1 and 1 + 2 are both 3, so 1 and 2 are one world
    seq = Sequent(rel=((1, 1, 3), (1, 2, 3)))
    cfg = preset("bbi+c")
    model, world = certified(branch_countermodel(seq, {}, A, cfg), cfg, A)
    assert world == 1
    assert model == FrameModel(3, units(3) | {(1, 1, 2)}, {})


def test_an_indivisible_unit_merges_addends_of_e_into_e():
    # 1 + 2 = e: with an indivisible unit both are e; 3 stays, and the
    # valuations of the merged labels are united
    seq = Sequent(rel=((1, 2, 0),), gamma=((1, A), (3, A), (2, B)))
    goal = parse("~b")
    model, world = certified(branch_countermodel(seq, {}, goal, BBI_IU), BBI_IU, goal)
    assert world == 0      # label 1, the goal's, is now e
    assert model == FrameModel(2, units(2), {"a": frozenset({0, 1}), "b": frozenset({0})})


def test_disjointness_merges_a_self_sum_into_e():
    # 1 + 1 = 2: with disjointness 1 is e, and then (e, e |> 2) makes 2 e
    # too; an indivisible unit alone merges nothing here
    seq = Sequent(rel=((1, 1, 2),))
    cfg = preset("bbi+d")
    got = certified(branch_countermodel(seq, {}, A, cfg), cfg, A)
    assert got == (FrameModel(1, units(1), {}), 0)
    model, _ = certified(branch_countermodel(seq, {}, A, BBI_IU), BBI_IU, A)
    assert model == FrameModel(3, units(3) | {(1, 1, 2)}, {})


def test_an_identity_atom_left_by_a_merge_is_normalized():
    # 1 + 2 = e and 1 + 3 = 4: the indivisible unit makes 1 and 2 e, which
    # leaves (e, 3 |> 4); 3 and 4 are then one world, not a broken unit law
    seq = Sequent(rel=((1, 2, 0), (2, 1, 0), (1, 3, 4), (3, 1, 4)), delta=((1, A),))
    got = certified(branch_countermodel(seq, {}, A, BBI_IU), BBI_IU, A)
    assert got == (FrameModel(2, units(2), {}), 0)


def test_bbi_merges_nothing():
    # the sequents of the merging tests above keep a world per label
    for rel, gamma, goal, val in (
            (((1, 1, 1), (1, 1, 2)), ((1, A), (2, B)), parse("~a"),
             {"a": frozenset({1}), "b": frozenset({2})}),
            (((1, 1, 3), (1, 2, 3)), (), A, {}),
            (((1, 2, 0),), ((1, A), (3, A), (2, B)), parse("~b"),
             {"a": frozenset({1, 3}), "b": frozenset({2})})):
        seq = Sequent(rel=rel, gamma=gamma)
        model, _ = certified(branch_countermodel(seq, {}, goal, BBI), BBI, goal)
        assert model.size == len(seq.labels)
        assert set(rel) <= model.rel
        assert model.valuation == val


def test_a_merged_label_shares_its_target_world():
    # 3 is merged into 1: its atoms land on 1's world, its antecedents
    # are dropped, and the goal's label keeps world 1
    seq = Sequent(rel=((1, 1, 2), (3, 3, 2)), gamma=((2, A), (3, B)))
    model, world = certified(branch_countermodel(seq, {3: 1}, A, BBI), BBI, A)
    assert world == 1
    assert model == FrameModel(3, units(3) | {(1, 1, 2)}, {"a": frozenset({2})})
