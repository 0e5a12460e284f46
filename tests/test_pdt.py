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


def sites(pdt):
    """Paths expanded in each round, read off the grid layer by layer."""
    return [[b.path for b in layer
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
        if pos.admitted is None or mid not in pos.admitted.get(task, []):
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
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        kid = pdt.layers[1][0]
        assert names(p, kid.anc_tasks, "task") == {"main"}
        pdt.expand([kid])
        grand = kid.children[0]
        assert names(p, grand.anc_tasks, "task") == {"main", "start-right"}

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
        assert carried.layer == 1 and carried.path == (1,)
        assert carried.children == [] and carried.admitted is None

    def test_late_expansion_attaches_children_directly(self, ground):
        p = ground("fork3")
        pdt = build(p)
        pdt.expand([pdt.root])
        pdt.expand([pdt.layers[1][1]])
        carried = pdt.bottom()[0]
        assert carried is pdt.layers[1][0] and carried.path == (0,)
        pdt.expand([carried])
        assert carried.admitted is not None
        kid = carried.children[0]
        assert kid.path == (0, 0) and kid.layer == 3
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
        # expanding countdown at (1,) blocks its recursive method there
        pdt.expand([pdt.layers[1][1]])
        fresh = pdt.reinsert_blocked()
        old = pdt.pending_positions()
        assert len(old) == 1 and len(pdt.layers) == len(fresh.layers)
        assert fresh.bottom()[0].path == old[0].path
        with pytest.raises(PdtUsageError):
            fresh.expand(old)


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


class TestBlocking:
    def test_recursive_method_blocked_below_itself(self, ground):
        p = ground("tower")
        pdt = build(p)
        pdt.expand([pdt.root])
        assert pdt.methods_developed == 3
        inner = pdt.layers[1][1]
        blocked = {m for t in inner.tasks for m in p.abstracts[t].methods
                   if pdt.is_blocked(inner, t, m)}
        assert {p.methods[m].name for m in blocked} == {"step(2,1)", "step(1,0)"}
        admitted = {m for t in inner.tasks
                    for m in pdt.admitted_methods(inner, t)}
        assert admitted and not admitted & blocked
        assert pdt.expandable(inner)
        pdt.expand([inner])
        # only the base method was admitted
        assert pdt.methods_developed == 4
        assert pdt.pending_positions() == []

    def test_blocking_bounds_exhaustive_expansion(self, ground):
        p = ground("tower")
        pdt = build(p)
        for _ in range(20):
            pending = [q for q in pdt.pending_positions() if pdt.expandable(q)]
            if not pending:
                break
            pdt.expand(pending)
        else:
            pytest.fail("expansion did not reach a fixpoint")
        assert pdt.blocked_pairs()

    def test_nonrecursive_domains_never_block(self, ground):
        for name in ("fork3", "taxi", "mpre", "addonly"):
            p = ground(name)
            pdt = build(p)
            for _ in range(4):
                pdt.expand(pdt.pending_positions())
                assert pdt.blocked_pairs() == set()


class TestReinsertion:
    def test_rebuild_admits_blocked_pairs(self, ground):
        p = ground("reinsert")
        pdt = build(p)
        for _ in range(10):
            pending = [q for q in pdt.pending_positions() if pdt.expandable(q)]
            if not pending:
                break
            pdt.expand(pending)
        pairs = pdt.blocked_pairs()
        assert pairs
        again = next(m for m in range(len(p.methods))
                     if p.methods[m].name == "again")
        assert any(mid == again for _, _, mid in pairs)

        fresh = pdt.reinsert_blocked()
        assert fresh.reinserted == pairs
        assert sites(fresh) == sites(pdt)
        # the replay kept every expanded position addressable
        for round_paths in sites(pdt):
            for path in round_paths:
                assert fresh.find(path).path == path
        # the readmitted method now has children in place
        assert fresh.methods_developed > pdt.methods_developed

    def test_reinsert_without_blocked_pairs_rejected(self, ground):
        pdt = build(ground("taxi"))
        with pytest.raises(PdtUsageError):
            pdt.reinsert_blocked()

    def test_paths_stable_across_rebuild(self, ground):
        p = ground("reinsert")
        pdt = build(p)
        for _ in range(10):
            pending = [q for q in pdt.pending_positions() if pdt.expandable(q)]
            if not pending:
                break
            pdt.expand(pending)
        fresh = pdt.reinsert_blocked()
        for layer_old, layer_new in zip(pdt.layers, fresh.layers):
            old_paths = {q.path for q in layer_old}
            new_paths = {q.path for q in layer_new}
            assert old_paths <= new_paths


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
