"""Check that the tests catch a listed set of small edits to ``src/``.

Usage, from the root of a checkout::

    python3 scripts/mutants.py

Each entry of ``MUTANTS`` names a file, an exact text in it (which must
occur once), its replacement, and a pytest selection that must fail
once the text is replaced.  The script copies ``src/``, ``tests/`` and
``perfbench/`` into a temporary directory, first runs every selection
there on unmutated code, which must pass, and then applies each entry in
turn to the copy, runs its selection with ``PYTHONPATH=src`` and puts
the text back.  A selection that fails or runs past its time limit
catches its mutant.  One line per mutant says whether it was caught; the
script exits 0 only when the unmutated run passes and every mutant is
caught.  It is not part of tier 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")
TIME_LIMIT_S = 600


@dataclass(frozen=True)
class Mutant:
    path: str
    old: str
    new: str
    selection: tuple[str, ...]


MUTANTS = (
    # The bulk Bernoulli draw in the seeded generators.
    Mutant("src/semimatch/generate.py", "if x < t:", "if x <= t:",
           ("tests/test_generate.py::TestHits",)),
    Mutant("src/semimatch/generate.py", "w >> 38", "w >> 37",
           ("tests/test_generate.py::TestHits",)),
    Mutant("src/semimatch/generate.py", "bytes(c < cap for", "bytes(c <= cap for",
           ("tests/test_generate.py::TestHits",)),
    Mutant("src/semimatch/generate.py", "a + 1 + i - starts[a]", "a + i - starts[a]",
           ("tests/test_cover.py::TestRandomGraph",)),
    # The weight stop of a weighted phase, and the lightest-first pairs it needs.
    Mutant("src/semimatch/weighted.py", "if b + w > ub:", "if b + w >= ub:",
           ("tests/test_weighted.py::TestWeightStop",)),
    Mutant("src/semimatch/weighted.py", "count(len(self.floor))), key=light)",
           "count(len(self.floor))), key=light, reverse=True)",
           ("tests/test_weighted.py::TestWeightStop",)),
    # The slot update of a weighted phase, read off its finalized jobs.
    Mutant("src/semimatch/weighted.py", "shift[v][i - 1] -= gain", "shift[v][i - 1] += gain",
           ("tests/test_weighted.py::TestPhaseInvariants",)),
    Mutant("src/semimatch/weighted.py", "shift[v][i - 1] -= gain\n            negdiffs[v] = None",
           "shift[v][i - 1] -= gain",
           ("tests/test_weighted.py::TestPhaseInvariants",)),
    Mutant("src/semimatch/weighted.py", "if slot is not None:",
           "if slot is not None and d < bound - 1:",
           ("tests/test_weighted.py::TestPhaseInvariants",)),
    # The dual checks of check mode: feasibility and tightness.
    Mutant("src/semimatch/weighted.py", "assert y <= valley, (", "assert True, (",
           ("tests/test_weighted.py::TestPhaseInvariants",)),
    Mutant("src/semimatch/weighted.py", "assert row[here[1] - 1] == y,", "assert True,",
           ("tests/test_weighted.py::TestPhaseInvariants",)),
    # The same-slope comparison of an envelope insert.
    Mutant("src/semimatch/envelope.py", "intercept < env[pos].intercept",
           "intercept > env[pos].intercept",
           ("tests/test_envelope.py",)),
    # The two level-1 tests of unit cancellation.
    Mutant("src/semimatch/unweighted.py", "rank[b - nU][len(jobs) - 1] >= cut",
           "rank[b - nU][len(jobs) - 1] > cut",
           ("tests/test_unweighted.py::TestSolveUnweighted::test_fig2_optimal",)),
    Mutant("src/semimatch/unweighted.py", "k < len(r) and r[k] < cut", "k < len(r) and r[k] <= cut",
           ("tests/test_unweighted.py::TestSolveUnweighted::test_matches_brute_force",)),
    # The sink side of the layering, the relabel to levels and the split
    # on a dry side.
    Mutant("src/semimatch/unweighted.py", "if comp_of[u] == comp and carrier[u] != z:",
           "if carrier[u] != z:",
           ("tests/test_unweighted.py::TestSolveUnweighted::test_bottom_up_layering_equals_a_plain_bfs",)),
    Mutant("src/semimatch/unweighted.py", "else (False, reaching)", "else (False, reached)",
           ("tests/test_unweighted.py::TestSolveUnweighted::test_bottom_up_layering_equals_a_plain_bfs",)),
    Mutant("src/semimatch/unweighted.py", "for k in upper if upper_side else lower:",
           "for k in upper if upper_side else ():",
           ("tests/test_unweighted.py::TestSolveUnweighted::test_zipf_skew_retires_most_centers_and_matches_baseline",)),
    Mutant("src/semimatch/unweighted.py", "for u in carried[x - nU]:\n                comp_of[u] = new_comp",
           "for u in carried[x - nU]:\n                pass",
           ("tests/test_unweighted.py::TestSolveUnweighted::test_zipf_skew_retires_most_centers_and_matches_baseline",)),
    Mutant("src/semimatch/unweighted.py", "dist[x] = D - dist[x]", "dist[x] = D - dist[x] + 1",
           ("tests/test_unweighted.py::TestBackwardBlockingFlow",)),
    # The carrier record kept by CostCenterNetwork._move.
    Mutant("src/semimatch/unweighted.py", "lst[i] = last\n                where[last] = i",
           "lst[i] = last",
           ("tests/test_unweighted.py::TestBackwardBlockingFlow",)),
    # The key set that finds repeated pairs out of order.
    Mutant("src/semimatch/core.py", "return ordered or len(set(", "return True or len(set(",
           ("tests/test_core.py",)),
    # Ordered job columns ranged by their ends.
    Mutant("src/semimatch/core.py", "(jobs[0], jobs[-1]) if ordered", "(0, 0) if ordered",
           ("tests/test_core.py::TestInstanceValidation::test_ordered_columns_are_ranged_by_their_ends",)),
    # A parse_assignment that counts lines from 0.
    Mutant("src/semimatch/formats.py", "enumerate(text.splitlines(), start=1)",
           "enumerate(text.splitlines(), start=0)",
           ("tests/test_toolkit.py::TestParseAssignmentAgainstReferee::test_listed_texts",
            "tests/test_toolkit.py::TestParseAssignmentAgainstReferee::test_random_line_mixes")),
)


def run_selection(copy: Path, selection: tuple[str, ...]) -> str:
    """``passed``, ``failed`` or ``timed out``: pytest on ``selection`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return "timed out"
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode} on {' '.join(selection)}:\n"
                           f"{done.stdout.decode()[-2000:]}")
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        selections = tuple(dict.fromkeys(t for m in MUTANTS for t in m.selection))
        clean = run_selection(copy, selections)
        print(f"unmutated: {len(selections)} selections {clean}")
        caught = 0
        for m in MUTANTS:
            target = copy / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                raise RuntimeError(f"{m.path}: {m.old!r} occurs {text.count(m.old)} times")
            target.write_text(text.replace(m.old, m.new))
            try:
                outcome = run_selection(copy, m.selection)
            finally:
                target.write_text(text)
            caught += outcome != "passed"
            verdict = "caught" if outcome != "passed" else "SURVIVED"
            print(f"{verdict} ({outcome}): {m.path}: {m.old!r} -> {m.new!r}")
    print(f"{caught} of {len(MUTANTS)} mutants caught")
    return 0 if clean == "passed" and caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
