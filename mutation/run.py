"""Check the committed mutant list: each mutant is killed, or survives, as listed.

    python mutation/run.py

Every mutant in mutants.toml replaces one run of whole lines of a source
file (compared with surrounding whitespace stripped; the new lines keep the
old lines' indentation) and runs its test subset with pytest. A failing
subset kills the mutant; a passing one lets it survive. The mutants run one
at a time in a single temporary copy of the repository, which is restored
after each. Before the first mutant, every subset must pass on the unmutated
copy.

Exit status 0 when every outcome matches its `expect`. It is 1 when one does
not, when a mutant's old lines do not occur exactly once in its file, or when
pytest ends other than by passing or failing tests (a collection error, say).
Only the standard library is used; pytest and hypothesis must be installed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".perfbench_run", ".pytest_cache",
                                "__pycache__", "*.egg-info", "build")
OUTCOMES = {0: "survives", 1: "killed"}  # pytest: all passed / some failed


def _lines(value) -> list[str]:
    return [value] if isinstance(value, str) else list(value)


def mutate(text: str, old: list[str], new: list[str]) -> str:
    """text with its one run of lines equal to old (stripped) replaced by new."""
    lines = text.splitlines(keepends=True)
    hits = [i for i in range(len(lines) - len(old) + 1)
            if all(lines[i + j].strip() == old[j].strip() for j in range(len(old)))]
    if len(hits) != 1:
        raise ValueError(f"old lines occur {len(hits)} times, expected exactly once")
    i = hits[0]
    indents = [line[:len(line) - len(line.lstrip())] for line in lines[i:i + len(old)]]
    replaced = [indents[min(j, len(old) - 1)] + line.strip() + "\n" for j, line in enumerate(new)]
    return "".join(lines[:i] + replaced + lines[i + len(old):])


def run_tests(copy: Path, tests: list[str]) -> int:
    # no bytecode is written, so a mutant of the same size and mtime second
    # as the original can never be served from a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    mutants = tomllib.loads((ROOT / "mutation" / "mutants.toml").read_text())["mutant"]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="heatfleet-mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        subsets = sorted({test for mutant in mutants for test in mutant["tests"]})
        code = run_tests(copy, subsets)
        if code != 0:
            print(f"baseline: the unmutated test subsets exit {code}, expected 0")
            return 1
        for mutant in mutants:
            path = copy / mutant["file"]
            original = path.read_text()
            try:
                path.write_text(mutate(original, _lines(mutant["old"]), _lines(mutant["new"])))
                code = run_tests(copy, mutant["tests"])
            except ValueError as exc:
                code, outcome = None, f"error: {exc}"
            finally:
                path.write_text(original)
            if code is not None:
                outcome = OUTCOMES.get(code, f"error: pytest exit {code}")
            ok = outcome == mutant["expect"]
            failures += not ok
            print(f"{'ok ' if ok else 'BAD'} {mutant['name']}: {outcome} "
                  f"(expected {mutant['expect']})", flush=True)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
