"""Output checks for benchmark commands.

Each check returns a list of problems; an empty list means the output is
correct.  Checks never raise on bad output, so a wrong answer is counted as a
failed op instead of aborting the run.
"""
from __future__ import annotations

import csv
import io
import json

TRACE_COLUMNS = ["t", "phi", "p0", "p1", "alpha_sq", "beta_sq", "energy",
                 "step_overlap", "deviation_from_closed_form"]
TRACE_TOL = 1e-12


def check_brute(stdout: str, rc: int, solutions: list[str]) -> list[str]:
    """solve-brute lists exactly the known solutions and exits 0 iff any."""
    expected = "\n".join(solutions) + "\n" if solutions else "(none)\n"
    problems = []
    if rc != (0 if solutions else 1):
        problems.append(f"solve-brute exit code {rc}")
    if stdout != expected:
        problems.append(f"solve-brute printed {stdout[:80]!r}, expected {expected[:80]!r}")
    return problems


def check_run(stdout: str, rc: int, solutions: list[str],
              support: frozenset[int], shots: int) -> list[str]:
    """The run decision matches the oracle's and every sample is admissible.

    `solutions` is the oracle's solution list; `support` holds the basis
    indices of ``network_mask(include_output_pins=False)``.
    """
    try:
        result = json.loads(stdout)
        decision = result["decision"]
        samples = result["samples"]
        n_solutions = result["n_solutions"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"run output is not a decision record: {exc}"]
    problems = []
    expected = "satisfiable" if solutions else "unsatisfiable"
    if decision != expected:
        problems.append(f"run decided {decision!r}, oracle says {expected!r}")
    if rc != (0 if decision == "satisfiable" else 1):
        problems.append(f"run exit code {rc} for decision {decision!r}")
    try:
        outside = [s for s in samples if s is not None and int(s, 2) not in support]
    except (TypeError, ValueError):
        return problems + ["run returned a sample that is not a bit string"]
    if len(samples) != shots:
        problems.append(f"run returned {len(samples)} samples for {shots} shots")
    if outside:
        problems.append(f"{len(outside)} samples outside the input-constrained support")
    hits = sum(1 for s in samples if s in solutions)
    if n_solutions != hits:
        problems.append(f"run counted {n_solutions} solutions, samples hold {hits}")
    return problems


def check_trace(stdout: str, rc: int, n_steps: int) -> list[str]:
    """A trace has one row per step plus t=0, each within TRACE_TOL of closed form."""
    if rc != 0:
        return [f"trace exit code {rc}"]
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != TRACE_COLUMNS:
        return [f"trace header {rows[0] if rows else None!r}"]
    problems = []
    if len(rows) - 1 != n_steps + 1:
        problems.append(f"trace has {len(rows) - 1} rows, expected {n_steps + 1}")
    try:
        worst = max(float(row[-1]) for row in rows[1:])
    except (ValueError, IndexError) as exc:
        return problems + [f"unreadable trace row: {exc}"]
    if not worst <= TRACE_TOL:
        problems.append(f"deviation from closed form {worst:.3g} > {TRACE_TOL:g}")
    return problems
