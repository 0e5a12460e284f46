"""Generated test domains shared by the planner, CLI and acceptance tests."""
from __future__ import annotations

import random


def wide_choice(w: int, depth: int = 4) -> str:
    """A chain of `depth` hops to the goal where every hop also offers `w`
    decoy methods. Each decoy opens a distinct noise subtree that keeps
    growing for the rest of the run but can never add the goal fact, so
    state reasoning can discard all of them while uninformed expansion
    pays for every one.
    """
    lines = [f"problem wide{w}"]
    for i in range(depth + 1):
        lines.append(f"fact c({i})")
    lines += ["fact win", "fact junk"]
    lines.append("action noise add junk")
    for i in range(depth):
        lines.append(f"action go({i}) pre c({i}) add c({i + 1}) del c({i})")
    lines.append(f"action finish pre c({depth}) add win")
    for i in range(depth + 1):
        lines.append(f"task chain({i})")
    for i in range(depth):
        for j in range(w):
            for k in range(depth + 1):
                lines.append(f"task trap({i},{j},{k})")
    for i in range(depth):
        lines.append(f"method good({i}) chain({i}) -> go({i}) chain({i + 1})")
        for j in range(w):
            lines.append(f"method decoy({i},{j}) chain({i}) -> trap({i},{j},0)")
    lines.append(f"method done chain({depth}) -> finish")
    for i in range(depth):
        for j in range(w):
            for k in range(depth + 1):
                rest = f" trap({i},{j},{k + 1})" if k < depth else ""
                lines.append(
                    f"method tm({i},{j},{k}) trap({i},{j},{k}) -> noise{rest}")
    lines += ["init c(0)", "goal win", "root chain(0)"]
    return "\n".join(lines) + "\n"


def countdown(n: int) -> str:
    """``reinsert.ground`` with a counter from n down to 0 in place of 2:
    solvable, and only by the recursive method nested n deep."""
    lines = [f"problem countdown{n}"]
    lines += [f"fact n{i}" for i in range(n, -1, -1)]
    lines.append("fact done")
    lines += [f"action pop({i},{i - 1}) pre n{i} add n{i - 1} del n{i}"
              for i in range(n, 0, -1)]
    lines += ["action check pre n0 add done",
              "task countdown", "task dec",
              "method base countdown -> check",
              "method again countdown -> dec countdown"]
    lines += [f"method dec({i},{i - 1}) dec -> pop({i},{i - 1})"
              for i in range(n, 0, -1)]
    lines += [f"init n{n}", "goal done", "root countdown"]
    return "\n".join(lines) + "\n"


def chain(n: int) -> str:
    """t0 -> t1 -> ... -> t(n-1) -> fin: a grid n + 1 layers deep."""
    lines = ["problem chain", "fact done", "action fin add done"]
    lines += [f"task t{i}" for i in range(n)]
    lines += [f"method m{i} t{i} -> t{i + 1}" for i in range(n - 1)]
    lines += [f"method m{n - 1} t{n - 1} -> fin", "goal done", "root t0"]
    return "\n".join(lines) + "\n"


def flip_flop() -> str:
    """A countdown-shaped recursion with no plan: ``seta`` adds a and
    deletes b, ``setb`` does the reverse, and ``check`` needs both, so
    every nesting depth leaves exactly one of a and b true."""
    return "\n".join([
        "problem flipflop",
        "fact a", "fact b", "fact done",
        "action seta add a del b",
        "action setb add b del a",
        "action check pre a b add done",
        "task countdown", "task flip",
        "method base countdown -> check",
        "method again countdown -> flip countdown",
        "method flip(a) flip -> seta",
        "method flip(b) flip -> setb",
        "init a", "goal done", "root countdown"]) + "\n"


def two_of_three() -> str:
    """A countdown-shaped recursion with no plan: two tokens on the facts
    a, b and c, six actions ``mvxy`` that each move the token on x to y,
    and a ``check`` that needs all three. No action adds a token, so
    every pair of facts is reachable together but never all three."""
    moves = ["ab", "ac", "ba", "bc", "ca", "cb"]
    return "\n".join([
        "problem twoofthree",
        "fact a", "fact b", "fact c", "fact done",
        *[f"action mv{x}{y} pre {x} add {y} del {x}" for x, y in moves],
        "action check pre a b c add done",
        "task countdown", "task move",
        "method base countdown -> check",
        "method again countdown -> move countdown",
        *[f"method move({x},{y}) move -> mv{x}{y}" for x, y in moves],
        "init a b", "goal done", "root countdown"]) + "\n"


def parity3() -> str:
    """A countdown-shaped recursion with no plan: bits a, b and c, each
    with a complement fact (na, nb, nc), all false at first. Twelve
    actions ``flip(x,y)`` each flip two bits from the literals x and y,
    so an even number of bits is always set, and ``check`` needs a, nb
    and nc, which is odd. Every pair of literals over different bits
    holds together in some reachable state."""
    lits = [(x, y) for i, j in ("ab", "ac", "bc")
            for x in (i, f"n{i}") for y in (j, f"n{j}")]

    def neg(x):
        return x[1:] if x.startswith("n") else f"n{x}"

    return "\n".join([
        "problem parity3",
        *[f"fact {x}" for x in ("a", "na", "b", "nb", "c", "nc", "done")],
        *[f"action flip({x},{y}) pre {x} {y} add {neg(x)} {neg(y)} del {x} {y}"
          for x, y in lits],
        "action check pre a nb nc add done",
        "task countdown", "task flip",
        "method base countdown -> check",
        "method again countdown -> flip countdown",
        *[f"method pick({x},{y}) flip -> flip({x},{y})" for x, y in lits],
        "init na nb nc", "goal done", "root countdown"]) + "\n"


def parity2() -> str:
    """A countdown-shaped recursion with no plan: bits a and b, each with
    a complement fact (na, nb), both false at first. ``on`` sets both,
    ``off`` clears both, and ``check`` needs a and nb, a pair that never
    holds together although each of its facts holds alone."""
    return "\n".join([
        "problem parity2",
        "fact a", "fact na", "fact b", "fact nb", "fact done",
        "action on add a b del na nb",
        "action off add na nb del a b",
        "action check pre a nb add done",
        "task countdown", "task toggle",
        "method base countdown -> check",
        "method again countdown -> toggle countdown",
        "method toggle(on) toggle -> on",
        "method toggle(off) toggle -> off",
        "init na nb", "goal done", "root countdown"]) + "\n"


def random_acyclic(seed: int) -> str:
    """Small non-recursive instance: task subtasks only ever point to
    higher-numbered tasks, so every refinement terminates."""
    return _random_ground(random.Random(seed), f"rnd{seed}", recursive=False)


def random_recursive(seed: int) -> str:
    """Small instance like random_acyclic's, except that a subtask may
    name any task, the root and the method's own task included."""
    return _random_ground(random.Random(f"recursive/{seed}"), f"rec{seed}",
                          recursive=True)


def _random_ground(rng: random.Random, name: str, recursive: bool) -> str:
    nfacts = rng.randint(3, 5)
    nacts = rng.randint(3, 6)
    ntasks = rng.randint(2, 5)
    facts = [f"f{i}" for i in range(nfacts)]
    lines = [f"problem {name}"]
    lines += [f"fact {f}" for f in facts]
    for i in range(nacts):
        pre = rng.sample(facts, rng.randint(0, 2))
        add = rng.sample(facts, rng.randint(0, 2))
        dele = rng.sample(facts, rng.randint(0, 1))
        parts = [f"action a{i}"]
        if pre:
            parts.append("pre " + " ".join(pre))
        if add:
            parts.append("add " + " ".join(add))
        if dele:
            parts.append("del " + " ".join(dele))
        lines.append(" ".join(parts))
    lines += [f"task t{i}" for i in range(ntasks)]
    for i in range(ntasks):
        for j in range(rng.randint(1, 3)):
            subs = []
            for _ in range(rng.randint(0, 3)):
                lo = 0 if recursive else i + 1
                if lo < ntasks and rng.random() < 0.4:
                    subs.append(f"t{rng.randint(lo, ntasks - 1)}")
                else:
                    subs.append(f"a{rng.randint(0, nacts - 1)}")
            lines.append(f"method t{i}m{j} t{i} ->" +
                         ("" if not subs else " " + " ".join(subs)))
    lines.append("init " + " ".join(rng.sample(facts, rng.randint(1, nfacts))))
    goal = rng.sample(facts, rng.randint(0, 2))
    if goal:
        lines.append("goal " + " ".join(goal))
    lines.append("root t0")
    return "\n".join(lines) + "\n"


def random_lifted(seed: int) -> tuple[str, str]:
    """Small lifted (domain, problem) HDDL pair for differential grounding.

    The first two predicates are static (no action changes them). The
    domains use a subtype, static literals of both signs, ``=`` and
    ``not =`` literals, constants in literals and subtask arguments, and
    methods whose task atom repeats a variable or names a constant. Most
    arguments fit their slot's type and some do not, so typing rules
    instances out; some tasks are never reached and some have no method.
    """
    rng = random.Random(f"lifted/{seed}")
    types = ["item", "gadget", "place"]  # gadget - item
    objects = {ty: [f"{ty[0]}{i}" for i in range(rng.randint(1, 3))]
               for ty in types}
    pool = {ty: objects[ty] for ty in types}
    pool["item"] = objects["item"] + objects["gadget"]

    def typed(n):
        return [rng.choice(types) for _ in range(n)]

    preds = {f"q{i}": typed(rng.randint(0, 2)) for i in range(5)}
    static, fluent = list(preds)[:2], list(preds)[2:]
    actions = {f"a{i}": typed(rng.randint(0, 3)) for i in range(3)}
    tasks = {f"t{i}": typed(rng.randint(0, 2)) for i in range(4)}
    sigs = {**tasks, **actions}

    def arg(env, ty):
        """A variable of env (name -> type) or a constant, for a slot of
        type ty; one in five ignores the type."""
        if rng.random() < 0.2:
            return rng.choice(list(env) + objects[rng.choice(types)])
        fits = [v for v, t in env.items()
                if t == ty or (ty == "item" and t == "gadget")]
        if fits and rng.random() < 0.8:
            return rng.choice(fits)
        return rng.choice(pool[ty])

    def atom(name, env):
        return "(" + " ".join([name] + [arg(env, ty) for ty in sigs.get(
            name, preds.get(name, []))]) + ")"

    def literals(env, names, n):
        out = []
        for _ in range(n):
            lit = atom(rng.choice(names), env)
            out.append(lit if rng.random() < 0.6 else f"(not {lit})")
        if rng.random() < 0.4:
            ty = rng.choice(types)
            eq = f"(= {arg(env, ty)} {arg(env, ty)})"
            out.append(eq if rng.random() < 0.5 else f"(not {eq})")
        return " ".join(out)

    def params(env):
        return " ".join(f"{v} - {t}" for v, t in env.items())

    lines = ["(define (domain rnd)",
             "  (:requirements :typing :hierarchy :negative-preconditions)",
             "  (:types gadget - item item place)",
             "  (:predicates " + " ".join(
                 "(" + " ".join([p] + [f"?x{j} - {t}" for j, t in enumerate(tys)])
                 + ")" for p, tys in preds.items()) + ")"]
    for t, tys in tasks.items():
        env = {f"?x{j}": ty for j, ty in enumerate(tys)}
        lines.append(f"  (:task {t} :parameters ({params(env)}))")
    for a, tys in actions.items():
        env = {f"?v{j}": ty for j, ty in enumerate(tys)}
        eff = [atom(p, env) for p in rng.sample(fluent, rng.randint(1, 2))]
        eff = [e if rng.random() < 0.6 else f"(not {e})" for e in eff]
        lines.append(f"  (:action {a} :parameters ({params(env)})"
                     f" :precondition (and {literals(env, list(preds), rng.randint(0, 2))})"
                     f" :effect (and {' '.join(eff)}))")
    for i in range(7):
        # the first two methods refine the root task; the second repeats
        # a variable in its task atom when the task has two parameters
        t = "t0" if i < 2 else rng.choice(list(tasks))
        env, targs = {}, []
        for ty in tasks[t]:
            r = rng.random()
            if env and (r < 0.25 or i == 1):
                targs.append(rng.choice(list(env)))
            elif r < 0.4:
                targs.append(rng.choice(pool[ty]))
            else:
                v = f"?m{len(env)}"
                env[v] = ty if rng.random() < 0.7 else rng.choice(types)
                targs.append(v)
        for _ in range(rng.randint(0, 2)):
            env[f"?m{len(env)}"] = rng.choice(types)
        subs = " ".join(atom(rng.choice(list(sigs)), env)
                        for _ in range(rng.randint(0, 3)))
        lines.append(f"  (:method m{i} :parameters ({params(env)})"
                     f" :task ({' '.join([t] + targs)})"
                     f" :precondition (and "
                     f"{literals(env, static + static + fluent, rng.randint(0, 2))})"
                     f" :ordered-subtasks (and {subs}))")
    lines.append(")")

    def ground_atom(name):
        return "(" + " ".join([name] + [rng.choice(pool[ty]) for ty in sigs.get(
            name, preds.get(name, []))]) + ")"

    init = [ground_atom(p) for p in preds for _ in range(rng.randint(0, 3))]
    goal = [ground_atom(p) for p in rng.sample(fluent, rng.randint(0, 1))]
    top = [ground_atom("t0")]
    if rng.random() < 0.3:
        top.append(ground_atom(rng.choice(list(sigs))))
    problem = "\n".join([
        "(define (problem rnd1)",
        "  (:domain rnd)",
        "  (:objects " + " ".join(f"{' '.join(objects[ty])} - {ty}"
                                  for ty in types) + ")",
        "  (:htn :parameters () :subtasks (and "
        + " ".join(f"(s{i} {a})" for i, a in enumerate(top)) + "))",
        f"  (:init {' '.join(init)})",
        f"  (:goal (and {' '.join(goal)})))"])
    return "\n".join(lines) + "\n", problem + "\n"
