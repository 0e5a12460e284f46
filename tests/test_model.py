"""Execution semantics, structural validation and decomposition trees."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from htnsat.hddl import parse_ground
from htnsat.model import (
    ABSTRACT,
    ACTION,
    AbstractTask,
    Action,
    DecompositionTree,
    Fact,
    Method,
    ModelError,
    Problem,
    TaskRef,
    bits,
    mask,
)


def tiny() -> Problem:
    return parse_ground(
        "fact f\nfact g\nfact h\n"
        "action a pre f add g del f\n"
        "action b pre g add h\n"
        "task t\nmethod m t -> a b\n"
        "init f\ngoal h\nroot t\n")


def test_apply_requires_precondition():
    p = tiny()
    assert p.apply(0, 0) is None          # f absent
    s = p.apply(p.init, 0)
    assert s == 1 << p.fact_id("g")       # f deleted, g added


def test_apply_seq_folds_and_fails_fast():
    p = tiny()
    assert p.apply_seq(p.init, [0, 1]) is not None
    assert p.apply_seq(p.init, [1, 0]) is None


def test_goal_check():
    p = tiny()
    s = p.apply_seq(p.init, [0, 1])
    assert p.is_goal(s)
    assert not p.is_goal(p.init)


def test_add_wins_over_delete():
    p = parse_ground(
        "fact f\naction a pre f add f del f\n"
        "task t\nmethod m t -> a\ninit f\nroot t\n")
    assert p.actions[0].eff_neg == 0
    assert p.apply(p.init, 0) == p.init


def test_finalize_rejects_out_of_order_ids():
    with pytest.raises(ModelError):
        Problem(name="bad", facts=[Fact(1, "f")], actions=[], abstracts=[
            AbstractTask(0, "t")], methods=[], root=0, init=0,
            goal=0).finalize()


def test_finalize_rejects_dangling_refs():
    # one action and one task: each reference misses its pool or names none
    for ref in (TaskRef(ACTION, 3), TaskRef(ABSTRACT, 1), TaskRef(ACTION, -1),
                TaskRef("method", 0), TaskRef("bogus", 0)):
        p = Problem(name="bad", facts=[Fact(0, "f")],
                    actions=[Action(0, "a", 0, 0, 0)],
                    abstracts=[AbstractTask(0, "t", methods=[0])],
                    methods=[Method(0, "m", 0, [TaskRef(ACTION, 0), ref])],
                    root=0, init=0, goal=0)
        with pytest.raises(ModelError, match="bad task reference"):
            p.finalize()


def test_finalize_rejects_bad_root():
    with pytest.raises(ModelError):
        Problem(name="bad", facts=[], actions=[], abstracts=[],
                methods=[], root=0, init=0, goal=0).finalize()


@given(st.lists(st.integers(0, 300)))
def test_bits_inverts_mask(ids):
    assert bits(mask(ids)) == sorted(set(ids))


def test_finalize_keeps_in_range_masks():
    p = tiny()
    assert (p.init, p.goal) == (1 << p.fact_id("f"), 1 << p.fact_id("h"))
    assert [bits(p.actions[0].precond), bits(p.actions[0].eff_neg)] == [
        [p.fact_id("f")], [p.fact_id("f")]]


@pytest.mark.parametrize("where", ["init", "goal", "precond", "eff_pos",
                                   "eff_neg"])
@pytest.mark.parametrize("bit", [3, 64])
def test_finalize_rejects_out_of_range_bits(where, bit):
    p = tiny()  # three facts
    if where in ("init", "goal"):
        setattr(p, where, getattr(p, where) | 1 << bit)
    else:
        setattr(p.actions[1], where, getattr(p.actions[1], where) | 1 << bit)
    with pytest.raises(ModelError, match=f"bad .*fact id {bit}"):
        p.finalize()


def test_tree_frontier_order_and_plan():
    p = tiny()
    dt = DecompositionTree()
    dt.root = dt.add(ABSTRACT, 0, method=0)
    a = dt.add(ACTION, 0)
    b = dt.add(ACTION, 1)
    dt.nodes[dt.root].children = [a, b]
    assert dt.plan() == [0, 1]


def test_tree_developed_by_an_empty_method_has_an_empty_plan():
    dt = DecompositionTree()
    dt.root = dt.add(ABSTRACT, 0, method=0)
    assert dt.plan() == []


def test_tree_plan_none_with_abstract_leaf():
    dt = DecompositionTree(nodes=[], root=0)
    dt.add(ABSTRACT, 0)
    assert dt.plan() is None
