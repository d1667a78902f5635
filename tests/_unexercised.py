"""The traffic census: every function of src/pitkit, with its lines, that
no run executes.

The three pitbench corpora are generated at one seed (pitbench/corpus.py,
the only pitbench module imported), written to a temporary directory and
run in this process through cli.main, each pit report followed by
`verify --against` its circuit, as pitbench does.  With --tests, tier-1
then runs in this process too, through pytest.main.  A sys.settrace hook
limited to the files of src/pitkit records each line executed, and the
census prints, module by module, every function (a method as
Class.name; its lambdas, comprehensions and inner functions counted with
it) whose lines include one that no run executed: "never called" when
none of them ran, else the lines that did not.  Run from the root of a
checkout:

    PYTHONPATH=src python3 tests/_unexercised.py                  # corpora, seed 21
    PYTHONPATH=src python3 tests/_unexercised.py --seed 1 --tests  # and tier-1

Tracing every line makes tier-1 about three and a half times slower.
The underscore keeps pytest from collecting it.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "pitbench"))

import corpus  # noqa: E402
from pitkit import cli  # noqa: E402

SRC = os.path.dirname(os.path.abspath(cli.__file__))


def run_call(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def corpus_calls(seed, directory):
    """Run every call of the three corpora at seed, their files written to
    directory, each pit report followed by `verify --against` its circuit.
    Yields (instance id, argv, exit code, stdout, stderr) per call."""
    home = os.getcwd()
    os.chdir(directory)
    try:
        for workload in sorted(corpus.WORKLOADS):
            insts = corpus.WORKLOADS[workload](seed)
            corpus.write(insts, directory)
            for inst in insts:
                report = inst["meta"].get("report")
                for argv in inst["calls"]:
                    rc, out, err = run_call(argv)
                    yield inst["id"], argv, rc, out, err
                    if argv[0] == "pit":
                        report = report or inst["id"] + ".out.json"
                    if report and argv[0] != "verify":
                        with open(report, "w") as fh:
                            fh.write(out)
                    if argv[0] == "pit":
                        argv = ["verify", report, "--against", argv[1]]
                        yield (inst["id"], argv) + run_call(argv)
    finally:
        os.chdir(home)


class LineTrace:
    """The lines of the files under SRC that run while it is installed."""

    def __init__(self):
        self.lines = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(SRC):
            return None
        self.lines.add((code.co_filename, code.co_firstlineno))
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def functions(path):
    """{qualified name: set of line numbers} of every function and method
    defined at the top of the module or of its classes, each holding the
    lines of the code nested in it."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    out = {}

    def lines(code):
        got = {line for _, _, line in code.co_lines() if line is not None}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                got |= lines(const)
        return got

    def walk(code, in_class):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_qualname.endswith(">"):  # a lambda or comprehension at class level
                continue
            is_class = "__module__" in const.co_names and in_class is None
            if is_class:
                walk(const, const.co_qualname)
            else:
                out[const.co_qualname] = lines(const)

    walk(module, None)
    return out


def spans(numbers):
    """"3-5, 9" for the numbers 3, 4, 5 and 9."""
    numbers = sorted(numbers)
    parts = []
    start = prev = numbers[0]
    for n in numbers[1:] + [None]:
        if n is not None and n == prev + 1:
            prev = n
            continue
        parts.append(str(start) if start == prev else "%d-%d" % (start, prev))
        start = prev = n
    return ", ".join(parts)


def census(executed):
    """The lines of the census, module by module."""
    report = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        for qualname, lines in sorted(functions(path).items(), key=lambda kv: min(kv[1])):
            missed = {line for line in lines if (path, line) not in executed}
            if len(missed) == len(lines):
                report.append("%s.%s: never called (%s)" % (name[:-3], qualname, spans(lines)))
            elif missed:
                report.append("%s.%s: lines %s" % (name[:-3], qualname, spans(missed)))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=21, help="the corpora's seed (21)")
    parser.add_argument("--tests", action="store_true", help="run tier-1 too")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory, LineTrace() as trace:
        calls = sum(1 for _ in corpus_calls(args.seed, directory))
    print("corpora at seed %d: %d calls" % (args.seed, calls), file=sys.stderr)
    if args.tests:
        import pytest

        # pytest's report goes to stderr: stdout holds the census alone
        with contextlib.redirect_stdout(sys.stderr), LineTrace() as more:
            code = pytest.main(["-q", "-p", "no:cacheprovider", HERE])
        print("tier-1 exited %d" % code, file=sys.stderr)
        trace.lines |= more.lines
    print("\n".join(census(trace.lines)))


if __name__ == "__main__":
    main()
