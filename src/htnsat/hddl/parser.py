"""Reader for a totally-ordered hierarchical domain subset.

Supported: single-inheritance typing, STRIPS actions with conjunctive
(possibly negated) preconditions, equality constraints, abstract tasks,
methods with totally ordered subtasks and optional method
preconditions, and problems with a single :htn network. Everything
outside that subset is rejected with an error naming the source, line
and offending construct; nothing is silently skipped.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class HddlParseError(ValueError):
    def __init__(self, src: str, line: int, message: str):
        super().__init__(f"{src} line {line}: {message}")
        self.src = src
        self.line = line
        self.message = message


class Tok(str):
    line: int

    def __new__(cls, s: str, line: int):
        obj = super().__new__(cls, s)
        obj.line = line
        return obj


class SList(list):
    line: int = 0


# -- s-expression reading ----------------------------------------------------


def _tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line, i, n = 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(Tok(c, line))
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            toks.append(Tok(text[i:j].lower(), line))
            i = j
    return toks


def _read_forms(text: str, src: str) -> list:
    toks = _tokenize(text)
    forms: list = []
    stack: list[SList] = []
    for tok in toks:
        if tok == "(":
            lst = SList()
            lst.line = tok.line
            if stack:
                stack[-1].append(lst)
            else:
                forms.append(lst)
            stack.append(lst)
        elif tok == ")":
            if not stack:
                raise HddlParseError(src, tok.line, "unbalanced ')'")
            stack.pop()
        else:
            if not stack:
                raise HddlParseError(src, tok.line, f"stray token {tok!r}")
            stack[-1].append(tok)
    if stack:
        raise HddlParseError(src, stack[-1].line, "unbalanced '('")
    return forms


# -- AST ---------------------------------------------------------------------


Literal = tuple[str, tuple[str, ...], bool]  # predicate/"=", args, positive


@dataclass
class LiftedAction:
    name: str
    params: list[tuple[str, str]]
    precond: list[Literal] = field(default_factory=list)
    eff_pos: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    eff_neg: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)


@dataclass
class LiftedTask:
    name: str
    params: list[tuple[str, str]]


@dataclass
class LiftedMethod:
    name: str
    params: list[tuple[str, str]]
    task: tuple[str, tuple[str, ...]]
    precond: list[Literal] = field(default_factory=list)
    subtasks: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)


@dataclass
class LiftedDomain:
    name: str
    types: dict[str, str]  # type -> parent
    predicates: dict[str, list[str]]  # name -> parameter types
    actions: list[LiftedAction]
    tasks: list[LiftedTask]
    methods: list[LiftedMethod]


@dataclass
class LiftedProblem:
    name: str
    domain_name: str
    objects: list[tuple[str, str]]
    init: list[tuple[str, tuple[str, ...]]]
    goal: list[tuple[str, tuple[str, ...]]]
    top_tasks: list[tuple[str, tuple[str, ...]]]


# -- shared helpers ----------------------------------------------------------


def _fail(src: str, node, message: str):
    line = getattr(node, "line", 0)
    raise HddlParseError(src, line, message)


def _head(form, src) -> str:
    if not isinstance(form, SList) or not form or isinstance(form[0], SList):
        _fail(src, form, "expected a named s-expression")
    return str(form[0])


def _typed_names(items, src) -> list[tuple[str, str]]:
    """Parse 'a b - t c' into [(a,t),(b,t),(c,object)]."""
    out: list[tuple[str, str]] = []
    hold: list[str] = []
    it = iter(items)
    for tok in it:
        if isinstance(tok, SList):
            _fail(src, tok, "expected a plain name in typed list")
        if tok == "-":
            ty = next(it, None)
            if ty is None or isinstance(ty, SList):
                _fail(src, tok, "dangling '-' in typed list")
            out.extend((n, str(ty)) for n in hold)
            hold = []
        else:
            hold.append(str(tok))
    out.extend((n, "object") for n in hold)
    return out


def _atom(form, src) -> tuple[str, tuple[str, ...]]:
    if not isinstance(form, SList) or not form:
        _fail(src, form, "expected a predicate or task atom")
    for part in form:
        if isinstance(part, SList):
            _fail(src, form, "nested expression inside an atom")
    return str(form[0]), tuple(str(a) for a in form[1:])


_REJECTED_CONNECTIVES = {"or", "imply", "forall", "exists", "when", "oneof"}
_SUBTASK_KEYS = (":ordered-subtasks", ":subtasks", ":ordered-tasks", ":tasks")


def _conjunction(form, src, what: str) -> list:
    """Flatten (), (and ...) with (and ...) nested to any depth, or a
    single item into a list of items, in order."""
    if form is None:
        return []
    if not isinstance(form, SList):
        _fail(src, form, f"expected a {what}")
    if not form:
        return []
    items: list = []
    stack = [form]  # an explicit stack: the nesting depth is the input's
    while stack:
        item = stack.pop()
        if isinstance(item, SList) and item and item[0] == "and":
            stack.extend(reversed(item[1:]))
        else:
            items.append(item)
    return items


def _literals(form, src, what: str) -> list[Literal]:
    out: list[Literal] = []
    for item in _conjunction(form, src, what):
        positive = True
        node = item
        if isinstance(node, SList) and node and node[0] == "not":
            if len(node) != 2:
                _fail(src, node, "'not' takes exactly one argument")
            positive = False
            node = node[1]
        head = _head(node, src)
        if head in _REJECTED_CONNECTIVES:
            _fail(src, node, f"'{head}' is outside the supported subset")
        if head == "not":
            _fail(src, node, "double negation is outside the supported subset")
        name, args = _atom(node, src)
        out.append((name, args, positive))
    return out


def _key_chunks(body, src) -> list[tuple[Tok, list]]:
    """Split a definition body into (:key, values...) chunks."""
    chunks: list[tuple[Tok, list]] = []
    for item in body:
        if not isinstance(item, SList) and str(item).startswith(":"):
            chunks.append((item, []))
        elif not chunks:
            _fail(src, item, f"unexpected token {item!r} before any :key")
        else:
            chunks[-1][1].append(item)
    return chunks


def _single(values, key, src):
    if len(values) != 1:
        _fail(src, key, f"{key} takes exactly one value")
    return values[0]


# -- domain ------------------------------------------------------------------


def _parse_domain(text: str, src: str) -> LiftedDomain:
    forms = _read_forms(text, src)
    if len(forms) != 1 or _head(forms[0], src) != "define":
        _fail(src, forms[0] if forms else SList(), "expected one (define ...)")
    body = forms[0][1:]
    if not body or _head(body[0], src) != "domain" or len(body[0]) != 2:
        _fail(src, forms[0], "expected (domain NAME)")
    dom = LiftedDomain(name=str(body[0][1]), types={}, predicates={},
                       actions=[], tasks=[], methods=[])
    for form in body[1:]:
        head = _head(form, src)
        if head == ":requirements":
            continue
        if head == ":types":
            for name, parent in _typed_names(form[1:], src):
                dom.types[name] = parent
        elif head == ":predicates":
            for pred in form[1:]:
                if (not isinstance(pred, SList) or not pred
                        or isinstance(pred[0], SList)):
                    _fail(src, pred, "expected (predicate ?params...)")
                dom.predicates[str(pred[0])] = \
                    [t for _, t in _typed_names(pred[1:], src)]
        elif head == ":task":
            dom.tasks.append(_parse_task(form, src))
        elif head == ":action":
            dom.actions.append(_parse_action(form, src))
        elif head == ":method":
            dom.methods.append(_parse_method(form, src))
        else:
            _fail(src, form, f"'{head}' is outside the supported subset")
    _check_domain(dom, src)
    return dom


def _parse_task(form, src) -> LiftedTask:
    if len(form) < 2 or isinstance(form[1], SList):
        _fail(src, form, "expected (:task NAME :parameters (...))")
    params: list[tuple[str, str]] = []
    for key, values in _key_chunks(form[2:], src):
        if key == ":parameters":
            params = _typed_names(_single(values, key, src), src)
        else:
            _fail(src, key, f"'{key}' not allowed in a task definition")
    return LiftedTask(name=str(form[1]), params=params)


def _parse_action(form, src) -> LiftedAction:
    if len(form) < 2 or isinstance(form[1], SList):
        _fail(src, form, "expected (:action NAME ...)")
    act = LiftedAction(name=str(form[1]), params=[])
    for key, values in _key_chunks(form[2:], src):
        if key == ":parameters":
            act.params = _typed_names(_single(values, key, src), src)
        elif key == ":precondition":
            act.precond = _literals(_single(values, key, src), src,
                                    "precondition")
        elif key == ":effect":
            for name, args, positive in _literals(
                    _single(values, key, src), src, "effect"):
                if name == "=":
                    _fail(src, key, "equality is not allowed in effects")
                (act.eff_pos if positive else act.eff_neg).append((name, args))
        else:
            _fail(src, key, f"'{key}' is outside the supported subset")
    return act


def _parse_method(form, src) -> LiftedMethod:
    if len(form) < 2 or isinstance(form[1], SList):
        _fail(src, form, "expected (:method NAME ...)")
    meth = LiftedMethod(name=str(form[1]), params=[], task=("", ()))
    saw_subtasks = False
    for key, values in _key_chunks(form[2:], src):
        if key == ":parameters":
            meth.params = _typed_names(_single(values, key, src), src)
        elif key == ":task":
            meth.task = _atom(_single(values, key, src), src)
        elif key == ":precondition":
            meth.precond = _literals(_single(values, key, src), src,
                                     "method precondition")
        elif key in _SUBTASK_KEYS:
            if saw_subtasks:
                _fail(src, key, "duplicate subtask list")
            saw_subtasks = True
            meth.subtasks = _parse_subtasks(_single(values, key, src), src)
        elif key == ":ordering":
            _check_ordering(_single(values, key, src), key, src)
        else:
            _fail(src, key, f"'{key}' is outside the supported subset")
    if not meth.task[0]:
        _fail(src, form, f"method {meth.name} lacks a :task")
    return meth


def _check_ordering(val, key, src) -> None:
    """Only an empty ':ordering' is accepted: the order is the list's."""
    if not (isinstance(val, SList) and (not val or list(val) == ["and"])):
        _fail(src, key, "partial-order ':ordering' constraints are "
                        "outside the supported subset")


def _parse_subtasks(form, src) -> list[tuple[str, tuple[str, ...]]]:
    out = []
    for entry in _conjunction(form, src, "subtask list"):
        if len(entry) == 2 and isinstance(entry[1], SList):
            entry = entry[1]  # drop the label of (label (task args))
        out.append(_atom(entry, src))
    return out


def _arities(dom: LiftedDomain) -> dict[str, int]:
    """Parameter count of every task and action, by name."""
    return {x.name: len(x.params) for x in dom.tasks + dom.actions}


def _check_domain(dom: LiftedDomain, src: str) -> None:
    for name, parent in dom.types.items():
        if parent != "object" and parent not in dom.types:
            raise HddlParseError(src, 0, f"type {name} has unknown parent "
                                         f"{parent}")
    for kind, names in (("action", [a.name for a in dom.actions]),
                        ("task", [t.name for t in dom.tasks]),
                        ("method", [m.name for m in dom.methods])):
        seen = set()
        for n in names:
            if n in seen:
                raise HddlParseError(src, 0, f"duplicate {kind} name {n}")
            seen.add(n)
    tasks = {t.name for t in dom.tasks}
    arity = _arities(dom)
    if tasks & {a.name for a in dom.actions}:
        dup = sorted(tasks & {a.name for a in dom.actions})[0]
        raise HddlParseError(src, 0, f"name {dup} is both a task and an "
                                     f"action")

    def check_params(params, where):
        for var, ty in params:
            if not var.startswith("?"):
                raise HddlParseError(src, 0, f"{where}: parameter {var} "
                                             "must start with '?'")
            if ty != "object" and ty not in dom.types:
                raise HddlParseError(src, 0, f"{where}: unknown type {ty}")

    def check_literals(lits, params, where):
        bound = {v for v, _ in params}
        for name, args, _ in lits:
            if name == "=":
                if len(args) != 2:
                    raise HddlParseError(src, 0, f"{where}: '=' takes two "
                                                 "arguments")
            elif name not in dom.predicates:
                raise HddlParseError(src, 0, f"{where}: unknown predicate "
                                             f"{name}")
            elif len(args) != len(dom.predicates[name]):
                raise HddlParseError(src, 0, f"{where}: {name} expects "
                                             f"{len(dom.predicates[name])} "
                                             f"arguments, got {len(args)}")
            for a in args:
                if a.startswith("?") and a not in bound:
                    raise HddlParseError(src, 0, f"{where}: unbound "
                                                 f"variable {a}")

    for act in dom.actions:
        check_params(act.params, f"action {act.name}")
        check_literals(act.precond, act.params, f"action {act.name}")
        check_literals([(n, a, True) for n, a in act.eff_pos + act.eff_neg],
                       act.params, f"action {act.name}")
    for task in dom.tasks:
        check_params(task.params, f"task {task.name}")
    for meth in dom.methods:
        where = f"method {meth.name}"
        check_params(meth.params, where)
        check_literals(meth.precond, meth.params, where)
        if meth.task[0] not in tasks:
            raise HddlParseError(src, 0, f"{where}: undeclared task "
                                         f"{meth.task[0]}")
        bound = {v for v, _ in meth.params}
        for name, args in [meth.task] + meth.subtasks:
            if name not in arity:
                raise HddlParseError(src, 0, f"{where}: unknown subtask "
                                             f"{name}")
            if len(args) != arity[name]:
                raise HddlParseError(src, 0, f"{where}: {name} expects "
                                             f"{arity[name]} arguments, "
                                             f"got {len(args)}")
            for a in args:
                if a.startswith("?") and a not in bound:
                    raise HddlParseError(src, 0, f"{where}: unbound "
                                                 f"variable {a}")


# -- problem -----------------------------------------------------------------


def _parse_problem(text: str, src: str) -> LiftedProblem:
    forms = _read_forms(text, src)
    if len(forms) != 1 or _head(forms[0], src) != "define":
        _fail(src, forms[0] if forms else SList(), "expected one (define ...)")
    body = forms[0][1:]
    if not body or _head(body[0], src) != "problem" or len(body[0]) != 2:
        _fail(src, forms[0], "expected (problem NAME)")
    prob = LiftedProblem(name=str(body[0][1]), domain_name="", objects=[],
                         init=[], goal=[], top_tasks=[])
    for form in body[1:]:
        head = _head(form, src)
        if head == ":domain":
            if len(form) != 2 or isinstance(form[1], SList):
                _fail(src, form, "expected (:domain NAME)")
            prob.domain_name = str(form[1])
        elif head == ":requirements":
            continue
        elif head == ":objects":
            prob.objects = _typed_names(form[1:], src)
        elif head == ":htn":
            _parse_htn(form, prob, src)
        elif head == ":init":
            prob.init = [_atom(f, src) for f in form[1:]]
        elif head == ":goal":
            if len(form) > 2:
                _fail(src, form, ":goal takes at most one formula")
            goal = form[1] if len(form) == 2 else None
            for name, args, positive in _literals(goal, src, "goal"):
                if not positive:
                    _fail(src, form, "negative goals are outside the "
                                     "supported subset")
                if name == "=":
                    _fail(src, form, "equality goals are outside the "
                                     "supported subset")
                prob.goal.append((name, args))
        else:
            _fail(src, form, f"'{head}' is outside the supported subset")
    if not prob.top_tasks:
        _fail(src, forms[0], "problem lacks an :htn block with subtasks")
    return prob


def _parse_htn(form, prob: LiftedProblem, src: str) -> None:
    for key, values in _key_chunks(form[1:], src):
        if key == ":parameters":
            val = _single(values, key, src)
            if isinstance(val, SList) and val:
                _fail(src, key, "nonempty :htn parameters are outside the "
                                "supported subset")
        elif key in _SUBTASK_KEYS:
            prob.top_tasks = _parse_subtasks(_single(values, key, src), src)
        elif key == ":ordering":
            _check_ordering(_single(values, key, src), key, src)
        else:
            _fail(src, key, f"'{key}' is outside the supported subset")


def parse(domain_text: str, problem_text: str,
          domain_src: str = "domain", problem_src: str = "problem"
          ) -> tuple[LiftedDomain, LiftedProblem]:
    dom = _parse_domain(domain_text, domain_src)
    prob = _parse_problem(problem_text, problem_src)
    arity = _arities(dom)
    for name, args in prob.init + prob.goal:
        if name not in dom.predicates:
            raise HddlParseError(problem_src, 0, f"unknown predicate {name}")
        if len(args) != len(dom.predicates[name]):
            raise HddlParseError(problem_src, 0,
                                 f"{name} expects "
                                 f"{len(dom.predicates[name])} arguments, "
                                 f"got {len(args)}")
    for name, args in prob.top_tasks:
        if name not in arity:
            raise HddlParseError(problem_src, 0, f"unknown task {name} in "
                                                 ":htn block")
        if len(args) != arity[name]:
            raise HddlParseError(problem_src, 0,
                                 f":htn block: {name} expects {arity[name]} "
                                 f"arguments, got {len(args)}")
    return dom, prob
