import pytest

from htnsat.inference import compute_profiles
from htnsat.model import ABSTRACT, TaskRef
from htnsat.pdt import Pdt, PdtUsageError

from oracles import enumerate_dts


def build(problem):
    return Pdt(problem, compute_profiles(problem))


def names(problem, ids, kind):
    pool = problem.actions if kind == "act" else problem.abstracts
    return {pool[i].name for i in ids}


def counts(problem, pos):
    """Ancestor counts of a position, keyed by task name. Only recursive
    tasks are counted."""
    recursive = compute_profiles(problem).recursive
    assert all(recursive[t] for t in pos.anc_counts)
    return {problem.abstracts[t].name: c for t, c in pos.anc_counts.items()}


def paths(pdt):
    """The child-index path of every position, walked down from the root."""
    out = {pdt.root: ()}
    stack = [pdt.root]
    while stack:
        pos = stack.pop()
        for i, kid in enumerate(pos.children):
            out[kid] = out[pos] + (i,)
            stack.append(kid)
    return out


def sites(pdt):
    """Paths expanded in each round, read off the grid layer by layer."""
    path = paths(pdt)
    return [[path[b] for b in layer
             if b.children and b.children[0].layer == k + 1]
            for k, layer in enumerate(pdt.layers[:-1])]


def admits(pdt, shape):
    """Is this decomposition-tree shape embeddable in the structure?"""

    def walk(pos, shape):
        if shape[0] == "act":
            return shape[1] in pos.acts
        _, task, dev = shape
        if task not in pos.tasks:
            return False
        if dev is None:
            return True
        mid, kids = dev
        # an expanded position has every method of its tasks
        if not pos.children:
            return False
        return all(walk(pos.children[i], k) for i, k in enumerate(kids))

    return walk(pdt.root, shape)


class TestExpansion:
    def test_fresh_structure(self, ground):
        p = ground("fork3")
        pdt = build(p)
        assert len(pdt.layers) == 1
        assert pdt.root.tasks == [p.root]
        assert pdt.pending_positions() == [pdt.root]
        assert pdt.methods_developed == 0

    def test_root_expansion_grid(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        layer = pdt.layers[1]
        # widest root method has three subtasks
        assert len(layer) == 3
        assert names(p, layer[0].acts, "act") == {"begin-left"}
        assert names(p, layer[0].tasks, "task") == {"start-right"}
        assert names(p, layer[1].acts, "act") == {"mid-right"}
        assert names(p, layer[1].tasks, "task") == {"finish-left"}
        assert names(p, layer[2].tasks, "task") == {"finish-right"}
        # only the slot past the short method needs a blank
        assert [q.has_blank for q in layer] == [False, False, True]
        assert pdt.methods_developed == 2

    def test_children_inherit_ancestor_tasks(self, ground):
        # fork3 has no recursive task, so nothing is counted: main and
        # start-right sit above the grandchild but are absent
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        kid = pdt.layers[1][0]
        assert "main" not in counts(p, kid)
        pdt.expand([kid])
        grand = kid.children[0]
        assert counts(p, grand) == {}

    def test_ancestor_counts_add_up_along_a_recursion(self, ground):
        p = ground("reinsert")
        pdt = build(p)
        pdt.expand([pdt.root])
        inner = pdt.layers[1][1]
        assert counts(p, inner) == {"countdown": 1}
        pdt.nesting_limit = 2
        pdt.expand([inner])
        assert counts(p, inner.children[1]) == {"countdown": 2}
        # dec is not recursive, so its children count only countdown
        pdt.expand([pdt.layers[1][0]])
        assert counts(p, pdt.layers[1][0].children[0]) == {"countdown": 1}

    def test_unexpanded_positions_are_carried_as_they_are(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        pdt.expand([pdt.layers[1][0]])
        bottom = pdt.bottom()
        assert len(bottom) == 3
        # the carried position is the same object, still unexpanded
        carried = pdt.layers[1][1]
        assert bottom[1] is carried
        assert carried.layer == 1 and paths(pdt)[carried] == (1,)
        assert carried.children == []

    def test_late_expansion_attaches_children_directly(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        pdt.expand([pdt.layers[1][1]])
        carried = pdt.bottom()[0]
        assert carried is pdt.layers[1][0] and paths(pdt)[carried] == (0,)
        pdt.expand([carried])
        kid = carried.children[0]
        assert paths(pdt)[kid] == (0, 0) and kid.layer == 3
        assert pdt.bottom()[0] is kid
        assert sites(pdt) == [[()], [(1,)], [(0,)]]

    def test_inherited_action_shares_slot_zero_with_subtasks(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        pdt.expand([pdt.layers[1][0]])
        kid = pdt.layers[1][0].children[0]
        assert names(p, kid.acts, "act") == {"begin-left", "begin-right"}
        assert not kid.has_blank

    def test_methods_developed_counts_created_method_nodes(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        pdt.expand(pdt.pending_positions())
        assert pdt.methods_developed == 6

    def test_layer_sizes_never_shrink(self, ground):
        p = ground("taxi")
        pdt = build(p)
        for _ in range(4):
            pending = pdt.pending_positions()
            pdt.expand(pending[:1])
        sizes = [len(layer) for layer in pdt.layers]
        assert sizes == sorted(sizes)

    def test_expired_and_double_expansion_rejected(self, ground):
        p = ground("fork3")
        pdt = build(p)
        root = pdt.root
        pdt.expand([root])
        with pytest.raises(PdtUsageError):
            pdt.expand([root])
        pdt.expand([pdt.layers[1][0]])
        # the action-only child position is not pending
        kid = pdt.layers[1][0].children[0]
        with pytest.raises(PdtUsageError):
            pdt.expand([kid])

    def test_position_from_before_a_reinsertion_rejected(self, ground):
        p = ground("reinsert")
        pdt = build(p)
        pdt.expand([pdt.root])
        # expanding countdown at (1,) holds the countdown below it
        inner = pdt.layers[1][1]
        pdt.expand([inner])
        deeper = inner.children[1]
        assert pdt.held(deeper)
        pdt.reinsert_blocked()
        # the grid stays: what was expanded stays expanded
        with pytest.raises(PdtUsageError):
            pdt.expand([inner])
        pdt.expand([deeper])
        assert counts(p, deeper.children[1]) == {"countdown": 3}


class TestContainment:
    @pytest.mark.parametrize("name,rounds", [
        ("fork3", 3), ("taxi", 4), ("mpre", 3),
    ])
    def test_exhaustive_expansion_captures_all_trees(self, ground, name, rounds):
        p = ground(name)
        pdt = build(p)
        for _ in range(rounds):
            pdt.expand(pdt.pending_positions())
        shapes = enumerate_dts(p, TaskRef(ABSTRACT, p.root), rounds)
        assert shapes
        for shape in shapes:
            assert admits(pdt, shape), shape


def to_fixpoint(pdt):
    """Expand every expandable position until none is left."""
    for _ in range(50):
        pending = [q for q in pdt.pending_positions() if pdt.expandable(q)]
        if not pending:
            return
        pdt.expand(pending)
    pytest.fail("expansion did not reach a fixpoint")


class TestBlocking:
    def test_recursive_method_blocked_below_itself(self, ground):
        p = ground("tower")
        pdt = build(p)
        pdt.expand([pdt.root])
        assert pdt.methods_developed == 3
        inner = pdt.layers[1][1]
        assert counts(p, inner) == {"strip": 1}
        assert pdt.expandable(inner) and pdt.blocked_pairs() == set()
        pdt.expand([inner])
        # every method is developed, and the strip below is held
        assert pdt.methods_developed == 6
        deeper = inner.children[1]
        assert counts(p, deeper) == {"strip": 2}
        assert pdt.held(deeper) and not pdt.expandable(deeper)
        assert pdt.pending_positions() == [deeper]
        assert {(pos, p.methods[m].name) for pos, _, m in pdt.blocked_pairs()} \
            == {(deeper, "stop"), (deeper, "step(2,1)"), (deeper, "step(1,0)")}

    def test_blocking_bounds_exhaustive_expansion(self, ground):
        p = ground("tower")
        pdt = build(p)
        to_fixpoint(pdt)
        assert pdt.blocked_pairs()

    def test_nonrecursive_domains_never_block(self, ground):
        for name in ("fork3", "taxi", "mpre", "addonly"):
            p = ground(name)
            pdt = build(p)
            for _ in range(4):
                pdt.expand(pdt.pending_positions())
                assert pdt.blocked_pairs() == set()


class TestReinsertion:
    @pytest.mark.parametrize("name", ["reinsert", "tower"])
    def test_reinsertion_makes_every_held_position_expandable(self, ground, name):
        p = ground(name)
        pdt = build(p)
        for limit in (1, 2, 4):
            to_fixpoint(pdt)
            held = [b for b in pdt.bottom() if pdt.held(b)]
            assert held
            pairs = pdt.blocked_pairs()
            assert {pos for pos, _, _ in pairs} == set(held)
            assert pdt.nesting_limit == limit
            assert pdt.reinsert_blocked() is None
            assert pdt.nesting_limit == 2 * limit
            assert all(pdt.expandable(b) for b in held)
            assert pdt.blocked_pairs() == set()
        if name == "reinsert":
            again = next(m.id for m in p.methods if m.name == "again")
            assert any(mid == again for _, _, mid in pairs)

    def test_reinsert_without_blocked_pairs_rejected(self, ground):
        pdt = build(ground("taxi"))
        with pytest.raises(PdtUsageError):
            pdt.reinsert_blocked()

    def test_reinsertion_keeps_the_grid_in_place(self, ground):
        p = ground("reinsert")
        pdt = build(p)
        to_fixpoint(pdt)
        layers = [list(layer) for layer in pdt.layers]
        developed = pdt.methods_developed
        pdt.reinsert_blocked()
        assert len(pdt.layers) == len(layers)
        for before, after in zip(layers, pdt.layers):
            assert len(before) == len(after)
            assert all(a is b for a, b in zip(before, after))
        assert pdt.methods_developed == developed


class TestDot:
    def test_dot_lists_tasks_and_methods(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        dot = pdt.to_dot()
        assert dot.startswith("digraph")
        assert "main" in dot and "go-left" in dot and "go-right" in dot
        assert '"troot_0" -> ' in dot

    def test_carried_task_node_emitted_once(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        pdt.expand([pdt.layers[1][0]])
        pdt.expand(pdt.pending_positions())
        # finish-right at (2,) sits on layers 1 and 2, then is expanded
        carried = pdt.layers[1][2]
        assert pdt.layers[2][-1] is carried
        assert carried.children and carried.children[0].layer == 3
        t = carried.tasks[0]
        dot = pdt.to_dot()
        node = f'  "t2_{t}" [label="{p.abstracts[t].name}"'
        assert sum(line.startswith(node) for line in dot.splitlines()) == 1
