"""Golden outputs: every fixture through the command line, compared by hash.

Each case runs ``htnsat`` in-process on one fixture with ``--plan``,
``--emit-dot``, ``--dump-cnf``, ``--dump-profiles`` and ``--stats`` and
hashes everything it writes, minus the parts that measure time: the
``;; time`` line of stdout and the time fields of the stats JSON. The
``search`` key hashes the stats once more without their variable, clause
and propagation counts (``search_check.search_stats``), so it moves only
with the search itself. The hashes live in ``fixtures/golden.json``; a
refactor that is meant to change no output must leave every one of them
equal, and one that only changes the encoding leaves ``search`` equal.

To regenerate the file after a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py --write

It prints, for each output key, how many cases changed against the old
file and which, so a change can be checked against the outputs it means
to alter.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from htnsat.cli import main
import search_check
from search_check import search_stats

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden.json"

INPUTS = {p.stem: [p] for p in sorted(FIXTURES.glob("*.ground"))}
INPUTS["taxi-hddl"] = [FIXTURES / "taxi.hddl", FIXTURES / "taxi1.hddl"]
INPUTS["walker-hddl"] = [FIXTURES / "walker.hddl", FIXTURES / "walker1.hddl"]
CONFIGS = {
    "greedy": ["--mode", "greedy"],
    "bfs": ["--mode", "bfs"],
    "lean": ["--mode", "greedy", "--no-mutex"],
}
CASES = [f"{name}/{cfg}" for name in INPUTS for cfg in CONFIGS]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _timeless_stats(text: str) -> str:
    stats = json.loads(text)
    del stats["wall_time"], stats["grounding_time"]
    for q in stats["queries"]:
        del q["time"]
    return json.dumps(stats, indent=2)


def run_case(case: str, work: Path) -> dict:
    """Run one case with every output flag and hash what it writes."""
    name, cfg = case.split("/")
    out = {k: work / k for k in ("plan", "dot", "cnf", "stats")}
    argv = [str(p) for p in INPUTS[name]] + CONFIGS[cfg] + [
        "--dump-profiles", "--plan", str(out["plan"]),
        "--emit-dot", str(out["dot"]), "--dump-cnf", str(out["cnf"]),
        "--stats", str(out["stats"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    profiles, status, rest = buf.getvalue().partition(";; status")
    stdout = "".join(line for line in (status + rest).splitlines(True)
                     if not line.startswith(";; time"))
    rounds = sorted(work.glob("cnf.round*.cnf"),
                    key=lambda p: int(re.search(r"round(\d+)", p.name)[1]))
    return {
        "exit": code,
        "stdout": _sha(stdout),
        "profiles": _sha(profiles),
        "plan": _sha(out["plan"].read_text()) if out["plan"].exists() else None,
        "dot": _sha(out["dot"].read_text()),
        "cnf": [_sha(p.read_text()) for p in rounds],
        "stats": _sha(_timeless_stats(out["stats"].read_text())),
        "search": _sha(search_stats(json.loads(out["stats"].read_text()))),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_search_key_moves_with_the_search_only():
    query = {"round": 1, "kind": "relaxed", "verdict": "sat", "time": 0.1,
             "vars": 9, "clauses": 20, "conflicts": 1, "decisions": 4,
             "propagations": 30, "frontier": ["a"]}
    stats = {"mode": "greedy", "rounds": 1, "methods_developed": 2,
             "wall_time": 1.0, "grounding_time": 0.5, "queries": [query],
             "events": []}
    sizes = dict(stats, wall_time=2.0, grounding_time=0.0, queries=[
        dict(query, time=0.3, vars=7, clauses=12, propagations=11)])
    assert search_stats(sizes) == search_stats(stats)
    for key, value in [("conflicts", 2), ("decisions", 5), ("frontier", ["b"]),
                       ("verdict", "unsat")]:
        moved = dict(stats, queries=[dict(query, **{key: value})])
        assert search_stats(moved) != search_stats(stats), key
    assert search_stats(dict(stats, methods_developed=3)) != search_stats(stats)


def test_search_check_takes_a_seed_range():
    assert search_check.seed_range(search_check.SEEDS) == range(1, 4)
    assert search_check.seed_range("4-6") == range(4, 7)
    for argv in (["--seeds"], ["--seeds", "4", "src"], ["--seeds", "a-b", "src"]):
        with pytest.raises(SystemExit, match="usage"):
            search_check.main(argv)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as d:
            table[case] = run_case(case, Path(d))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for key in sorted(table[CASES[0]]):
        changed = [c for c in CASES if old.get(c, {}).get(key) != table[c][key]]
        print(f"{key}: {len(changed)} of {len(CASES)} cases changed"
              + "".join(f"\n  {c}" for c in changed))
