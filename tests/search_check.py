"""Compare the search of two source trees on the benchmark's instances.

    python tests/search_check.py OLD_SRC [NEW_SRC]

Plans every walker and wide instance of perfbench seeds 1-3 in greedy
and in bfs mode, once with each ``src`` tree (NEW_SRC defaults to this
checkout's), and compares the runs' search fingerprints: the stats JSON
without what only measures the encoding or the clock. What is left is
each query's kind, verdict, conflicts, decisions and frontier, and each
run's rounds, methods developed, events and plan length. An encoding
change that keeps the search reads "30 of 30 runs identical". Exits 1
if a run differs. It also prints, per workload and per tree, the sum
over the runs of the last query's clauses and variables, which shows
what an encoding change does to the store.

``search_stats`` is also what the ``search`` key of the golden hashes
(``test_golden.py``) is taken over.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
MODES = ("greedy", "bfs")
# per query: the clock, how big the store is and how far level 0
# reaches, which an encoding change may move without moving the search
QUERY_NOISE = ("time", "vars", "clauses", "propagations")


def search_stats(stats: dict) -> str:
    """The stats JSON without time fields, variable, clause and
    propagation counts."""
    stats = {k: v for k, v in stats.items()
             if k not in ("wall_time", "grounding_time")}
    stats["queries"] = [{k: v for k, v in q.items() if k not in QUERY_NOISE}
                        for q in stats["queries"]]
    return json.dumps(stats, indent=2)


def fingerprints() -> dict[str, tuple[str, int, int]]:
    """Plan every run with the htnsat on sys.path. Per run: its search
    hash, and the last query's clauses and variables."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from htnsat.hddl import ground, parse, parse_ground
    from htnsat.planner import PlannerConfig, plan

    out = {}
    for wl in ("walker", "wide"):
        for seed in SEEDS:
            for inst in workloads.build(wl, seed):
                for mode in MODES:
                    p = (parse_ground(inst.ground_text) if inst.ground_text
                         else ground(*parse(inst.domain_text, inst.problem_text)))
                    res = plan(p, PlannerConfig(mode=mode))
                    text = search_stats(vars(res.stats))
                    last = res.stats.queries[-1]
                    out[f"{wl}/{inst.name}/seed{seed}/{mode}"] = (
                        hashlib.sha256(text.encode()).hexdigest(),
                        last["clauses"], last["vars"])
    return out


def run_tree(src: Path) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--fingerprints"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--fingerprints"]:
        print(json.dumps(fingerprints()))
        return 0
    if not 1 <= len(argv) <= 2:
        sys.exit("usage: python tests/search_check.py OLD_SRC [NEW_SRC]")
    old = run_tree(Path(argv[0]).resolve())
    new = run_tree(Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src")
    for wl in ("walker", "wide"):
        for tree, runs in (("old", old), ("new", new)):
            last = [v for run, v in runs.items() if run.startswith(wl + "/")]
            print(f"{wl} {tree}: last queries hold {sum(v[1] for v in last):,} "
                  f"clauses over {sum(v[2] for v in last):,} variables")
    differ = [run for run in old if old[run][0] != new[run][0]]
    for run in differ:
        print(f"differs: {run}")
    print(f"{len(old) - len(differ)} of {len(old)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
