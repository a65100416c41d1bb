#!/usr/bin/env python
"""Which lines of ``src/repro`` a run executes: a line census.

Runs experiments (serial, in this process) and the example scripts
under a ``sys.settrace`` hook that traces only frames whose code lives
in ``src/repro``, and writes every executable line that never ran,
grouped by file and function, after a per-package table. A file's
executable lines are the line numbers its code objects' ``co_lines()``
name; a line counts as run once any frame executed it. A function no
frame ever entered is marked ``never called``.

Stdlib only. Tracing is slow (minutes for everything under 3.11), so
nothing gates on it; the report is for reading.

Usage::

    python tools/line_census.py                 # --all + examples
    python tools/line_census.py E3 --no-examples --out e3-census.txt
    python tools/line_census.py E3 --no-examples -- --invariants

Everything after ``--`` is handed to ``python -m repro`` with the ids,
so the CLI modes (``--invariants``, ``--metrics-out``, ``--trace-out``,
``--profile``) can be censused too; the report's header names them.

Work that the experiments hand to forked workers is not seen, so
``--jobs`` above 1 is refused; the CLI runs serially here, and only an
experiment that forks on its own (a sharded pass in ``fork`` mode)
hides lines this way.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import runpy
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: code objects that are parts of their parent's body, not functions
_INLINE = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>",
           "<lambda>")


def _code_objects(code: CodeType,
                  owner: str) -> Iterator[Tuple[str, CodeType]]:
    """``(function, code)`` for ``code`` and every code object nested in
    it; comprehensions and lambdas report the function they sit in."""
    name = owner if code.co_name in _INLINE else code.co_qualname
    yield name, code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const, name)


def layout(path: Path) -> Tuple[Dict[int, str], Dict[str, int]]:
    """Line number -> the innermost function that holds it, for every
    line a code object of ``path`` names; and function -> first line."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    owner: Dict[int, str] = {}
    first: Dict[str, int] = {}
    for name, code in _code_objects(module, "<module>"):
        if code is not module and code.co_name not in _INLINE:
            first[name] = code.co_firstlineno
        for _start, _end, line in code.co_lines():
            if line:  # None: no source line; 0: synthetic
                owner[line] = name  # nested code comes after its parent
    return owner, first


class Census:
    """Lines executed, and functions entered, in files under ``root``."""

    def __init__(self, root: Path) -> None:
        self.prefix = str(root) + "/"
        self.ran: Dict[str, Set[int]] = defaultdict(set)
        self.called: Set[Tuple[str, int]] = set()
        self._inside: Dict[str, bool] = {}

    def _global(self, frame, event, _arg):
        filename = frame.f_code.co_filename
        inside = self._inside.get(filename)
        if inside is None:
            inside = self._inside[filename] = filename.startswith(self.prefix)
        if not inside:
            return None
        self.called.add((filename, frame.f_code.co_firstlineno))
        lines = self.ran[filename]

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    @contextlib.contextmanager
    def tracing(self) -> Iterator[None]:
        previous = sys.gettrace()
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(previous)


def _run_experiments(argv: Sequence[str]) -> None:
    from repro.__main__ import main
    code = main(list(argv))
    if code:
        raise SystemExit(f"python -m repro {' '.join(argv)} exited {code}")


def _run_example(path: Path) -> None:
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def take(argv: Sequence[str], examples: bool) -> Census:
    """Run ``python -m repro`` with ``argv`` and, if asked, every example
    under the tracer, with their output discarded."""
    sys.path.insert(0, str(PACKAGE.parent))
    census = Census(PACKAGE)
    with contextlib.redirect_stdout(io.StringIO()), census.tracing():
        _run_experiments(argv)
        if examples:
            for path in sorted(EXAMPLES.glob("*.py")):
                _run_example(path)
    return census


def _ranges(lines: Sequence[int]) -> str:
    spans: List[List[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(census: Census, runs: str) -> str:
    """The per-package table, then the unexecuted lines by function."""
    packages: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    sections: List[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(PACKAGE.parent)
        parts = path.relative_to(PACKAGE).parts
        package = parts[0] if len(parts) > 1 else "(top)"
        owner, first = layout(path)
        ran = census.ran.get(str(path), set())
        missed: Dict[str, List[int]] = defaultdict(list)
        for line in sorted(owner):
            if line not in ran:
                missed[owner[line]].append(line)
        packages[package][0] += len(owner)
        packages[package][1] += sum(map(len, missed.values()))
        if not missed:
            continue
        sections.append(f"\n## {rel}")
        for function, lines in missed.items():
            mark = ("" if function not in first
                    or (str(path), first[function]) in census.called
                    else " [never called]")
            sections.append(f"{function}{mark}: {_ranges(lines)}")
    total = sum(n for n, _missed in packages.values())
    not_run = sum(missed for _n, missed in packages.values())
    head = [f"# line census of src/repro over: {runs}",
            f"# {total - not_run:,} of {total:,} executable lines ran "
            f"({not_run:,} did not)", "",
            f"{'package':<16}{'executable':>11}{'ran':>8}{'not run':>9}"]
    for package, (n, missed) in sorted(packages.items()):
        head.append(f"{package:<16}{n:>11,}{n - missed:>8,}{missed:>9,}")
    return "\n".join(head + sections) + "\n"


def _jobs(flags: Sequence[str]) -> List[str]:
    """The values given to ``--jobs`` among the forwarded flags."""
    found = []
    for i, flag in enumerate(flags):
        if flag == "--jobs" and i + 1 < len(flags):
            found.append(flags[i + 1])
        elif flag.startswith("--jobs="):
            found.append(flag.split("=", 1)[1])
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s [ids ...] [--no-examples] [--out OUT] "
              "[-- CLI flags ...]")
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: all of them)")
    parser.add_argument("--no-examples", action="store_true",
                        help="skip the scripts under examples/")
    parser.add_argument("--out", help="write the report here, not stdout")
    argv = list(sys.argv[1:] if argv is None else argv)
    flags: List[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, flags = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    if any(value != "1" for value in _jobs(flags)):
        parser.error("--jobs above 1 runs experiments in forked workers, "
                     "whose lines are not traced: census serially")
    repro_argv = (args.ids or ["--all"]) + flags
    census = take(repro_argv, examples=not args.no_examples)
    runs = "python -m repro " + " ".join(repro_argv)
    if not args.no_examples:
        runs += " + examples/*.py"
    text = report(census, runs)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
