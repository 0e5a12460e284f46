"""Ground-format round trips and error reporting."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from htnsat.hddl import GroundFormatError, dump_ground, parse_ground
from htnsat.hddl.ground_format import _RESERVED, _SECTIONS
from htnsat.model import (
    ABSTRACT, ACTION, AbstractTask, Action, Fact, Method, Problem, TaskRef, mask,
)

from conftest import FIXTURES
from domains import countdown, flip_flop, wide_choice


@pytest.mark.parametrize("name", ["taxi", "tower", "mpre", "addonly"])
def test_ground_round_trip(name):
    text = (FIXTURES / f"{name}.ground").read_text()
    p = parse_ground(text)
    canon = dump_ground(p)
    assert dump_ground(parse_ground(canon)) == canon
    q = parse_ground(canon)
    assert [f.name for f in q.facts] == [f.name for f in p.facts]
    assert [a.name for a in q.actions] == [a.name for a in p.actions]
    assert [m.subtasks for m in q.methods] == [m.subtasks for m in p.methods]
    assert (q.init, q.goal, q.root) == (p.init, p.goal, p.root)


def test_parse_defaults_empty_init_and_goal():
    p = parse_ground("fact f\ntask t\nmethod m t ->\nroot t\n")
    assert p.init == 0 and p.goal == 0


@pytest.mark.parametrize("text,fragment", [
    ("fact f\nfact f\nroot t\n", "already declared"),
    ("action a pre f\ntask t\nroot t\n", "unknown fact"),
    ("fact pre\nroot t\n", "reserved word"),
    ("task t\nmethod m t a\nroot t\n", "method syntax"),
    ("task t\nmethod m t -> u\nroot t\n", "unknown subtask"),
    ("task t\nmethod m u -> \nroot t\n", "unknown task"),
    ("task t\n", "missing root"),
    ("task t\nroot u\n", "unknown root"),
    ("task t\ninit\ninit\nroot t\n", "duplicate init"),
    ("task t\nwibble x\nroot t\n", "unknown record"),
    ("task t\naction a f\nroot t\n", "expected pre/add/del"),
    ("problem a b\ntask t\nroot t\n", "problem takes exactly one name"),
    ("fact f g\ntask t\nroot t\n", "fact takes exactly one name"),
    ("task t u\nroot t\n", "task takes exactly one name"),
    ("task t\nroot t u\n", "root takes exactly one task name"),
    ("action\ntask t\nroot t\n", "action needs a name"),
    ("fact f\naction a pre f pre f\ntask t\nroot t\n", "duplicate 'pre' section"),
    ("task t\ngoal\ngoal\nroot t\n", "duplicate goal"),
    ("task t\nroot t\nroot t\n", "duplicate root"),
    # a second problem record does not rename the problem
    ("problem a\nproblem b\ntask t\nroot t\n", "line 2: duplicate problem"),
    # a section repeated after an empty first one
    ("fact f\naction x pre add f pre f\ntask t\nroot t\n",
     "line 2: duplicate 'pre' section"),
    # a method's TASK must name an abstract task, not an action
    ("action a\ntask t\nmethod m a ->\nroot t\n", "line 3: unknown task 'a'"),
    # facts, actions, tasks and methods share one namespace
    ("task t\nmethod m t ->\nfact m\nroot t\n",
     "line 3: name 'm' already declared"),
    ("task t\nmethod m t ->\naction m\nroot t\n",
     "line 3: name 'm' already declared"),
    ("task t\nmethod m t ->\ntask m\nroot t\n",
     "line 3: name 'm' already declared"),
    ("fact f\ntask t\nmethod f t ->\nroot t\n",
     "line 3: name 'f' already declared"),
    # of two unknown subtasks, the first one is reported
    ("action a\ntask t\nmethod m t -> a y x\nroot t\n",
     "line 3: unknown subtask 'y'"),
    # blank and comment-only lines count
    ("\n# header\n\ntask t\nfact t\nroot t\n",
     "line 5: name 't' already declared"),
    ("task t\n  # note\n\nmethod m t -> u\nroot t\n",
     "line 4: unknown subtask 'u'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GroundFormatError, match=fragment):
        parse_ground(text)


def test_parse_error_names_line():
    with pytest.raises(GroundFormatError, match="line 3"):
        parse_ground("task t\nfact f\nfact f\nroot t\n")


def test_comments_and_blank_lines_ignored():
    p = parse_ground("# header\n\nfact f  # fact g\ntask t # root u\n"
                     "method m t -> # u v\ninit f # g\nroot t # t t\n")
    assert [f.name for f in p.facts] == ["f"]
    assert [m.subtasks for m in p.methods] == [[]]
    assert (p.init, p.root) == (1, 0)


# -- records in any order ------------------------------------------------------


_names = st.text("abcdor1(),_-", min_size=1, max_size=4).filter(
    lambda s: s not in _RESERVED)


@st.composite
def _problems(draw) -> Problem:
    """A small ground problem built from model objects, never from text."""
    nf, na, nt = (draw(st.integers(lo, 4)) for lo in (0, 0, 1))
    nm = draw(st.integers(0, 6))
    names = draw(st.lists(_names, min_size=nf + na + nt + nm + 1,
                          max_size=nf + na + nt + nm + 1, unique=True))
    fact_sets = st.sets(st.integers(0, nf - 1)).map(mask) if nf else st.just(0)
    facts = [Fact(i, names.pop()) for i in range(nf)]
    actions = [Action(i, names.pop(), draw(fact_sets), draw(fact_sets),
                      draw(fact_sets)) for i in range(na)]
    tasks = [AbstractTask(i, names.pop()) for i in range(nt)]
    refs = [TaskRef(ACTION, i) for i in range(na)]
    refs += [TaskRef(ABSTRACT, i) for i in range(nt)]
    methods = []
    for mid in range(nm):
        t = draw(st.integers(0, nt - 1))
        subs = draw(st.lists(st.sampled_from(refs), max_size=3))
        methods.append(Method(mid, names.pop(), t, subs))
        tasks[t].methods.append(mid)
    return Problem(name=names.pop(), facts=facts, actions=actions,
                   abstracts=tasks, methods=methods,
                   root=draw(st.integers(0, nt - 1)), init=draw(fact_sets),
                   goal=draw(fact_sets)).finalize()


def _shuffled(draw, text: str) -> str:
    """The records of a canonical text in a random order that keeps the
    order of each kind's records, so every id stays, and puts an action
    below every fact it names. Action sections come in any order, empty
    ones too; comment, blank and padded lines are mixed in."""
    queues: dict[str, list[list[str]]] = {}
    for line in text.splitlines():
        queues.setdefault(line.split()[0], []).append(line.split())
    out, seen = [], set()

    def ready(kind: str) -> bool:
        toks = queues[kind][0]
        return kind != "action" or all(t in seen or t in _SECTIONS
                                       for t in toks[2:])

    while queues:
        kind = draw(st.sampled_from(sorted(k for k in queues if ready(k))))
        toks = queues[kind].pop(0)
        if not queues[kind]:
            del queues[kind]
        if kind == "fact":
            seen.add(toks[1])
        if kind == "action":
            secs: dict[str, list[str]] = {s: [] for s in _SECTIONS}
            for t in toks[2:]:
                if t in _SECTIONS:
                    cur = secs[t]
                else:
                    cur.append(t)
            order = draw(st.permutations(_SECTIONS))
            toks = toks[:2] + [t for s in order
                               if secs[s] or draw(st.booleans())
                               for t in [s, *secs[s]]]
        line = draw(st.sampled_from([" ", "  ", "\t"])).join(toks)
        pad = draw(st.sampled_from(["", " ", "\t"]))
        note = draw(st.sampled_from(["", " # task zz", "# root x -> y"]))
        out.append(pad + line + note)
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(["", "   ", "# method m t ->"])))
    return "\n".join(out) + "\n"


def _same_problem(p: Problem, q: Problem) -> None:
    assert p.name == q.name
    assert [(f.id, f.name) for f in p.facts] == [(f.id, f.name) for f in q.facts]
    assert p.actions == q.actions
    assert p.abstracts == q.abstracts  # names and per-task method lists
    assert p.methods == q.methods  # ids, tasks and subtasks
    assert (p.init, p.goal, p.root) == (q.init, q.goal, q.root)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_records_parse_alike_in_any_order(data):
    want = data.draw(_problems())
    canon = dump_ground(want)
    p = parse_ground(_shuffled(data.draw, canon))
    _same_problem(p, want)
    _same_problem(p, parse_ground(canon))
    assert dump_ground(p) == canon


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2), st.data())
def test_wide_choice_round_trips_in_any_order(w, data):
    canon = wide_choice(w)
    assert dump_ground(parse_ground(canon)) == canon
    _same_problem(parse_ground(_shuffled(data.draw, canon)), parse_ground(canon))


def test_long_run_generators_are_canonical():
    for text in (countdown(2), countdown(30), flip_flop()):
        assert dump_ground(parse_ground(text)) == text
    # countdown(2) is the reinsert fixture under another problem name
    fixture = dump_ground(parse_ground((FIXTURES / "reinsert.ground").read_text()))
    assert countdown(2).replace("countdown2", "reinsert", 1) == fixture
