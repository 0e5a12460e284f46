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
Facts, actions, tasks and methods share one namespace: a name is
declared once, under one kind, and is none of the format's keywords
(the record kinds, the section words and ``->``).
Records may appear in any order, except that an action names only facts
declared above it; a method's ``TASK`` and subtasks (``S``), ``init``,
``goal`` and ``root`` may name what is declared anywhere in the file,
so a method record is kept as its line and token list while the file is
read, and resolved in a second pass. ``problem``, ``init``, ``goal``,
``root`` and each section of an action appear at most once. ``init``
and ``goal`` default to empty when the line is absent; ``root`` is
required. dump_ground writes canonical text that parses back into an
identical problem, naming the facts of every set in ascending id order.
"""
from __future__ import annotations

from ..model import (
    ABSTRACT, ACTION, AbstractTask, Action, Fact, Method, Problem, TaskRef, bits, mask,
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
    # each action and task name to the one TaskRef every method shares
    refs: dict[str, TaskRef] = {}
    declared = set(_RESERVED)  # every fact, action, task and method name
    method_lns: list[int] = []  # each method record's line and tokens,
    method_toks: list[list[str]] = []  # resolved after the loop
    problem: str | None = None
    init: tuple[int, list[str]] | None = None
    goal: tuple[int, list[str]] | None = None
    root: tuple[int, str] | None = None

    def fail(ln: int, msg: str) -> None:
        raise GroundFormatError(f"line {ln}: {msg}")

    def name_taken(ln: int, nm: str, what: str) -> None:
        fail(ln, f"{what} name {nm!r} is a reserved word"
             if nm in _RESERVED else f"name {nm!r} already declared")

    def fact_mask(ln: int, toks: list[str]) -> int:
        for t in toks:
            if t not in fact_ids:
                fail(ln, f"unknown fact {t!r}")
        return mask(fact_ids[t] for t in toks)

    for ln, raw in enumerate(text.splitlines(), 1):
        toks = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "method":  # the most frequent records first
            if len(toks) < 4 or toks[3] != "->":
                fail(ln, "method syntax is: method NAME TASK -> [S ...]")
            nm = toks[1]
            if nm in declared:
                name_taken(ln, nm, "method")
            declared.add(nm)
            method_lns.append(ln)
            method_toks.append(toks)
        elif kind == "task":
            if len(toks) != 2:
                fail(ln, "task takes exactly one name")
            nm = toks[1]
            if nm in declared:
                name_taken(ln, nm, "task")
            declared.add(nm)
            refs[nm] = TaskRef(ABSTRACT, len(tasks))
            tasks.append(AbstractTask(len(tasks), nm))
        elif kind == "fact":
            if len(toks) != 2:
                fail(ln, "fact takes exactly one name")
            nm = toks[1]
            if nm in declared:
                name_taken(ln, nm, "fact")
            declared.add(nm)
            fact_ids[nm] = len(facts)
            facts.append(Fact(len(facts), nm))
        elif kind == "action":
            if len(toks) < 2:
                fail(ln, "action needs a name")
            nm = toks[1]
            if nm in declared:
                name_taken(ln, nm, "action")
            declared.add(nm)
            secs: dict[str, list[str]] = {}
            cur: list[str] | None = None
            for t in toks[2:]:
                if t in _SECTIONS:
                    if t in secs:
                        fail(ln, f"duplicate {t!r} section")
                    cur = secs[t] = []
                elif cur is None:
                    fail(ln, f"expected pre/add/del before {t!r}")
                else:
                    cur.append(t)
            refs[nm] = TaskRef(ACTION, len(actions))
            actions.append(Action(len(actions), nm, *(
                fact_mask(ln, secs.get(k, [])) for k in _SECTIONS)))
        elif kind == "problem":
            if problem is not None:
                fail(ln, "duplicate problem")
            if len(toks) != 2:
                fail(ln, "problem takes exactly one name")
            problem = toks[1]
        elif kind == "init":
            if init is not None:
                fail(ln, "duplicate init")
            init = (ln, toks[1:])
        elif kind == "goal":
            if goal is not None:
                fail(ln, "duplicate goal")
            goal = (ln, toks[1:])
        elif kind == "root":
            if root is not None:
                fail(ln, "duplicate root")
            if len(toks) != 2:
                fail(ln, "root takes exactly one task name")
            root = (ln, toks[1])
        else:
            fail(ln, f"unknown record {kind!r}")

    methods: list[Method] = []
    get = refs.get
    for mid, toks in enumerate(method_toks):
        task = get(toks[2])
        if task is None or task.kind != ABSTRACT:
            fail(method_lns[mid], f"unknown task {toks[2]!r}")
        sub_refs = list(map(get, toks[4:]))
        if None in sub_refs:
            fail(method_lns[mid], f"unknown subtask {toks[4 + sub_refs.index(None)]!r}")
        tid = task.id
        methods.append(Method(mid, toks[1], tid, sub_refs))
        tasks[tid].methods.append(mid)

    if root is None:
        raise GroundFormatError("missing root record")
    ln, rname = root
    r = get(rname)
    if r is None or r.kind != ABSTRACT:
        fail(ln, f"unknown root task {rname!r}")

    return Problem(name=problem or name, facts=facts, actions=actions,
                   abstracts=tasks, methods=methods, root=r.id,
                   init=fact_mask(*(init or (0, []))),
                   goal=fact_mask(*(goal or (0, [])))).finalize()


def dump_ground(p: Problem) -> str:
    def names(m: int) -> str:
        return " ".join(p.facts[i].name for i in bits(m))

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
    if p.init:
        out.append(f"init {names(p.init)}")
    if p.goal:
        out.append(f"goal {names(p.goal)}")
    out.append(f"root {p.abstracts[p.root].name}")
    return "\n".join(out) + "\n"
