"""Ground-format round trips and error reporting."""
from __future__ import annotations

import pytest

from htnsat.hddl import GroundFormatError, dump_ground, parse_ground

from conftest import FIXTURES


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
