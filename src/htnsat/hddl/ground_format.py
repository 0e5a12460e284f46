"""Plain-text ground problem format.

Lets tests and the command line feed an already-ground problem to the
planner without going through HDDL. One record per line; a ``#`` starts
a comment that runs to the end of the line:

    problem NAME
    fact NAME
    action NAME [pre F ...] [add F ...] [del F ...]
    task NAME
    method NAME TASK -> [S ...]
    init [F ...]
    goal [F ...]
    root TASK

Ids follow declaration order, so the format pins the numbering exactly.
Records may appear in any order; method subtask lists (``S``) name
actions or tasks declared anywhere in the file, which is why actions and
tasks must not share a name. ``init`` and ``goal`` default to empty when
the line is absent; ``root`` is required. dump_ground writes canonical
text that parses back into an identical problem.
"""
from __future__ import annotations

from ..model import (
    ABSTRACT, ACTION, AbstractTask, Action, Fact, Method, Problem, TaskRef, mask,
)

_SECTIONS = ("pre", "add", "del")
_RESERVED = {"problem", "fact", "action", "task", "method",
             "init", "goal", "root", "->", *_SECTIONS}


class GroundFormatError(ValueError):
    """Malformed ground-format text; the message names the line."""


def parse_ground(text: str, name: str = "ground") -> Problem:
    facts: list[Fact] = []
    actions: list[Action] = []
    tasks: list[AbstractTask] = []
    fact_ids: dict[str, int] = {}
    action_ids: dict[str, int] = {}
    task_ids: dict[str, int] = {}
    method_recs: list[tuple[int, str, str, list[str]]] = []
    method_names: set[str] = set()
    init: tuple[int, list[str]] | None = None
    goal: tuple[int, list[str]] | None = None
    root: tuple[int, str] | None = None

    def fail(ln: int, msg: str) -> None:
        raise GroundFormatError(f"line {ln}: {msg}")

    def fresh_name(ln: int, nm: str, what: str) -> str:
        if nm in _RESERVED:
            fail(ln, f"{what} name {nm!r} is a reserved word")
        if nm in fact_ids or nm in action_ids or nm in task_ids or nm in method_names:
            fail(ln, f"name {nm!r} already declared")
        return nm

    def fact_list(ln: int, toks: list[str]) -> list[int]:
        out = []
        for t in toks:
            if t not in fact_ids:
                fail(ln, f"unknown fact {t!r}")
            out.append(fact_ids[t])
        return out

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind, rest = toks[0], toks[1:]
        if kind == "problem":
            if len(rest) != 1:
                fail(ln, "problem takes exactly one name")
            name = rest[0]
        elif kind == "fact":
            if len(rest) != 1:
                fail(ln, "fact takes exactly one name")
            fact_ids[fresh_name(ln, rest[0], "fact")] = len(facts)
            facts.append(Fact(len(facts), rest[0]))
        elif kind == "action":
            if not rest:
                fail(ln, "action needs a name")
            nm = fresh_name(ln, rest[0], "action")
            secs: dict[str, list[str]] = {s: [] for s in _SECTIONS}
            cur: str | None = None
            for t in rest[1:]:
                if t in _SECTIONS:
                    if secs[t]:
                        fail(ln, f"duplicate {t!r} section")
                    cur = t
                elif cur is None:
                    fail(ln, f"expected pre/add/del before {t!r}")
                else:
                    secs[cur].append(t)
            action_ids[nm] = len(actions)
            actions.append(Action(len(actions), nm,
                                  frozenset(fact_list(ln, secs["pre"])),
                                  frozenset(fact_list(ln, secs["add"])),
                                  frozenset(fact_list(ln, secs["del"]))))
        elif kind == "task":
            if len(rest) != 1:
                fail(ln, "task takes exactly one name")
            task_ids[fresh_name(ln, rest[0], "task")] = len(tasks)
            tasks.append(AbstractTask(len(tasks), rest[0]))
        elif kind == "method":
            if len(rest) < 3 or rest[2] != "->":
                fail(ln, "method syntax is: method NAME TASK -> [S ...]")
            nm = fresh_name(ln, rest[0], "method")
            method_names.add(nm)
            method_recs.append((ln, nm, rest[1], rest[3:]))
        elif kind == "init":
            if init is not None:
                fail(ln, "duplicate init")
            init = (ln, rest)
        elif kind == "goal":
            if goal is not None:
                fail(ln, "duplicate goal")
            goal = (ln, rest)
        elif kind == "root":
            if root is not None:
                fail(ln, "duplicate root")
            if len(rest) != 1:
                fail(ln, "root takes exactly one task name")
            root = (ln, rest[0])
        else:
            fail(ln, f"unknown record {kind!r}")

    methods: list[Method] = []
    for ln, nm, tname, subs in method_recs:
        if tname not in task_ids:
            fail(ln, f"unknown task {tname!r}")
        refs = []
        for s in subs:
            if s in action_ids:
                refs.append(TaskRef(ACTION, action_ids[s]))
            elif s in task_ids:
                refs.append(TaskRef(ABSTRACT, task_ids[s]))
            else:
                fail(ln, f"unknown subtask {s!r}")
        mid = len(methods)
        methods.append(Method(mid, nm, task_ids[tname], refs))
        tasks[task_ids[tname]].methods.append(mid)
    for t in tasks:
        t.unrefinable = not t.methods

    if root is None:
        raise GroundFormatError("missing root record")
    ln, rname = root
    if rname not in task_ids:
        fail(ln, f"unknown root task {rname!r}")

    return Problem(name=name, facts=facts, actions=actions, abstracts=tasks,
                   methods=methods, root=task_ids[rname],
                   init=mask(fact_list(*(init or (0, [])))),
                   goal=frozenset(fact_list(*(goal or (0, []))))).finalize()


def dump_ground(p: Problem) -> str:
    def names(fids) -> str:
        return " ".join(p.facts[i].name for i in sorted(fids))

    out = [f"problem {p.name}"]
    for f in p.facts:
        out.append(f"fact {f.name}")
    for a in p.actions:
        parts = [f"action {a.name}"]
        for kw, s in (("pre", a.precond), ("add", a.eff_pos), ("del", a.eff_neg)):
            if s:
                parts.append(f"{kw} {names(s)}")
        out.append(" ".join(parts))
    for t in p.abstracts:
        out.append(f"task {t.name}")
    for m in p.methods:
        subs = " ".join(p.ref_name(r) for r in m.subtasks)
        head = f"method {m.name} {p.abstracts[m.task].name} ->"
        out.append(f"{head} {subs}" if subs else head)
    init = [f.id for f in p.facts if p.init >> f.id & 1]
    if init:
        out.append(f"init {names(init)}")
    if p.goal:
        out.append(f"goal {names(p.goal)}")
    out.append(f"root {p.abstracts[p.root].name}")
    return "\n".join(out) + "\n"
