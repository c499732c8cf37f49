#!/usr/bin/env python3
"""List the statements of `src/mvdtw` that the code's real traffic never runs.

The traffic, run in this process under the standard library's line counter
(`trace.Trace`); only the counts of this checkout's `src/mvdtw` files are
read:

* perfbench: for each workload of `perfbench/workloads.py`, the set-up
  (`set_up`: parse, normalize, split, tune, select) and one untraced pass of
  queries (`run_pass`), as `perfbench/run.py` runs them, on the workload's
  file written to a temporary directory;
* the commands of README's "Experiment scripts" block, run in a temporary
  directory: each `scripts/make_synthetic.py` line through that script's
  `main`, each `mvdtw-bench` (`python -m mvdtw`) line through
  `mvdtw.cli.main` with `--reps 1` (more repetitions repeat the same calls)
  and `--verify`.

perfbench is imported, not changed: no bytecode is written there.  A
statement counts as run when a line event fires on one of its own lines (a
compound statement's header lines, a simple statement's whole span);
statements that compile to no instructions, such as docstrings, are not
counted.  Prints, per module, the count and the statements that never ran.

Example:
    python3 scripts/traffic_trace.py
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import shlex
import sys
import tempfile
import trace
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvdtw"
MAKE_SYNTHETIC = ["python", "scripts/make_synthetic.py"]
MVDTW_BENCH = ["PYTHONPATH=src", "python", "-m", "mvdtw"]


def own_lines(stmt: ast.stmt) -> set:
    """A statement's own lines: a compound statement's header (decorators
    included) up to its first nested statement, a simple one's whole span."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    nested = [child.lineno for field in ("body", "handlers", "orelse", "finalbody", "cases")
              for child in getattr(stmt, field, [])]
    return set(range(start, min(nested) if nested else stmt.end_lineno + 1))


def code_lines(code) -> set:
    """Every line a code object and its nested ones have instructions on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def unrun(path: Path, hit: set) -> tuple[int, list]:
    """(statements with instructions, those of them none of whose own lines ran)."""
    source = path.read_text()
    executable = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    statements = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)]
    counted, missed = 0, []
    for node in sorted(statements, key=lambda node: node.lineno):
        lines = own_lines(node) & executable
        if lines:
            counted += 1
            if not lines & hit:
                missed.append((node.lineno, text[node.lineno - 1].strip()))
    return counted, missed


def perfbench_traffic() -> None:
    import run
    from refclock import ReferenceClock

    mv = run.load_library()
    clock = ReferenceClock()
    for name, workload in run.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.mts"
            mv.write_native(workload.generate(42), path)
            setup = run.set_up(mv, clock, path, workload.window, 42)
        done = run.run_pass(mv, setup, clock)
        if done.errors or run.failed_searches(done):
            sys.exit(f"perfbench pass on {name} failed:\n" + "\n".join(done.errors))


def readme_commands() -> list:
    """The commands of README's "Experiment scripts" block, each split into
    words, with continuation lines joined and comments dropped."""
    block = (ROOT / "README.md").read_text().split("## Experiment scripts", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [words for line in lines if (words := shlex.split(line, comments=True))]


def readme_traffic() -> None:
    import make_synthetic
    from mvdtw.cli import main as mvdtw_bench

    with (tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp),
          contextlib.redirect_stdout(io.StringIO())):
        for words in readme_commands():
            if words[:2] == MAKE_SYNTHETIC:
                make_synthetic.main(words[2:])
            elif words[:4] == MVDTW_BENCH:
                args = [path for word in words[4:] for path in sorted(glob.glob(word)) or [word]]
                if mvdtw_bench([*args, "--reps", "1", "--verify"]):
                    sys.exit(f"README command failed: {shlex.join(words)}")
            else:
                sys.exit(f"README command not recognised: {shlex.join(words)}")


def traffic() -> None:
    perfbench_traffic()
    readme_traffic()


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
    # No ignoredirs: trace caches what it ignores by bare module name, so
    # ignoring numpy's __init__.py would also ignore mvdtw's.
    counter = trace.Trace(count=1, trace=0)
    counter.runfunc(traffic)  # before mvdtw is imported, so module bodies count too
    hit = defaultdict(set)  # file name -> lines run
    for filename, lineno in counter.results().counts:
        hit[filename].add(lineno)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        counted, missed = unrun(path, hit[str(path)])
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {counted} statements never ran")
        for lineno, text in missed:
            print(f"  {lineno}: {text}")
    print(f"total: {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
