"""List the functions of ``src/repro`` that no entry point enters.

Usage (from the repository root, standard library and numpy only)::

    python tools/reachability.py                      # list; exit 1 if an entry fails
    python tools/reachability.py --max-unreached 224  # also exit 1 above 224

The entry points are the program's own front doors, run at D <= 1024:

* every ``hdtest`` subcommand, with every flag that selects a code path —
  the image, text and voice domains, the bipolar and binary families,
  both codebook kinds, every backend and executor (``process --workers
  2`` included), dense and shared-codebook ensembles under both oracles,
  ``--adaptive`` under both schedules, ``--telemetry``, ``--profile``,
  ``--progress``, and ``report`` on a telemetry stream and on
  ``--model``;
* perfbench's three workloads at its self-test scale (``TINY``), untraced
  and traced, imported from ``perfbench/`` without changing it.

Tests, benches and examples are not entry points: code that only they
call is what this tool is meant to find.

A global ``sys.settrace`` hook (also handed to new threads through
``threading.settrace``) records every code object it sees called and
returns ``None``, so no frame is traced line by line.  ``cProfile``
holds the other hook slot (``sys.setprofile``), so ``--profile`` runs do
not blind it.  Process-pool workers are forked with the hook in place;
each writes the functions it enters first to a file of its own, so code
that only workers run counts as reached.

A function is a ``def`` (method, nested function, property) in a
``.py`` file under ``src/repro``; lambdas, comprehensions and class
bodies are not counted.  Functions are told apart by file, first line
and name, as CPython numbers them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import io
import os
import sys
import tempfile
import threading
import traceback
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Entries run at this dimension (small, so the whole list runs in
#: seconds under the hook).
DIMENSION = "1024"

#: Code objects called in this process.  A forked worker inherits the
#: set and also appends what it adds to its own file, ``_worker_fd``,
#: which the parent reads back; in the parent ``_worker_fd`` is -1, and
#: ``_worker_dir`` is empty outside a run.
_entered: set[CodeType] = set()
_worker_dir: str = ""
_worker_fd: int = -1


def _record(frame, event, arg):
    """Global trace function: note the called code object, trace no lines."""
    code = frame.f_code
    if code not in _entered:
        _entered.add(code)
        if _worker_fd >= 0:
            line = f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n"
            os.write(_worker_fd, line.encode())
    return None


def _after_fork_in_child() -> None:
    """Give a forked process a file of its own for the code it enters."""
    global _worker_fd
    if not _worker_dir:  # forked outside a run: nothing to record
        return
    path = os.path.join(_worker_dir, f"{os.getpid()}.tsv")
    _worker_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)


os.register_at_fork(after_in_child=_after_fork_in_child)


def _functions() -> dict[tuple[str, int, str], str]:
    """Every function of the package: ``(file, first line, name) -> qualname``."""
    found: dict[tuple[str, int, str], str] = {}

    def walk(code: CodeType, path: str, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            name = const.co_name
            if name.startswith("<"):  # lambdas, comprehensions, genexprs
                walk(const, path, prefix)
                continue
            qualname = f"{prefix}{name}"
            if const.co_flags & inspect.CO_OPTIMIZED:  # class bodies lack it
                found[(path, const.co_firstlineno, name)] = qualname
                walk(const, path, f"{qualname}.<locals>.")
            else:
                walk(const, path, f"{qualname}.")

    for file in sorted(PACKAGE.rglob("*.py")):
        path = os.path.realpath(file)
        walk(compile(file.read_text(), path, "exec"), path, "")
    return found


def _entered_keys(worker_dir: Path) -> set[tuple[str, int, str]]:
    """Keys of the code entered here and in every forked worker."""
    keys = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in list(_entered)
    }
    for file in worker_dir.glob("*.tsv"):
        for line in file.read_text().splitlines():
            filename, lineno, name = line.split("\t")
            keys.add((os.path.realpath(filename), int(lineno), name))
    return keys


# -- entry points ---------------------------------------------------------


def _cli_entries(tmp: Path) -> list[list[str]]:
    """``hdtest`` argument vectors, in run order (trains first, reports last)."""
    from repro.fuzz.mutations import strategy_names

    def model(name: str) -> str:
        return str(tmp / f"{name}.npz")

    def stream(name: str) -> str:
        return str(tmp / f"{name}.jsonl")

    train = ["train", "--n-train", "120", "--n-test", "30",
             "--dimension", DIMENSION, "--seed", "7"]
    entries = [["strategies"]]
    for name, flags in (
        ("bipolar", []),
        ("bipolar-remat", ["--codebook", "rematerialized"]),
        ("binary", ["--family", "binary"]),
        ("binary-remat", ["--family", "binary", "--codebook", "rematerialized"]),
        ("text", ["--domain", "text"]),
        ("text-remat", ["--domain", "text", "--codebook", "rematerialized"]),
        ("voice", ["--domain", "voice"]),
    ):
        entries.append(train + ["--out", model(name)] + flags)

    executors = (["--executor", "serial"],
                 ["--executor", "batched", "--batch-size", "3"],
                 ["--executor", "process", "--workers", "2"])
    small = ["--n-images", "4", "--iter-times", "8", "--seed", "7"]
    ensemble = ["--ensemble", "3", "--ensemble-train", "60"]
    domains = (("image", "bipolar"), ("text", "text"), ("voice", "voice"))

    def fuzz(name: str, domain: str, *flags: str) -> list[str]:
        namespace = "record" if domain == "voice" else domain
        return ["fuzz", "--model", model(name), "--domain", domain,
                "--strategies", *strategy_names(namespace), *small, *flags]

    for domain, name in domains:
        for executor in executors:
            entries.append(fuzz(name, domain, *executor, "--show-example"))
            for shared in ([], ["--shared-codebook"]):
                entries.append(fuzz(name, domain, *executor, *ensemble, *shared))
        entries.append(fuzz(name, domain, "--adaptive", "--n-adversarial", "4",
                            "--executor", "batched"))
    # Voice records quantise with linear level HVs, which a seed cannot
    # regenerate row by row, so only image and text train rematerialized.
    for domain, name in (("image", "bipolar"), ("text", "text")):
        entries.append(fuzz(f"{name}-remat", domain, "--codebook", "rematerialized",
                            "--executor", "batched", *ensemble, "--shared-codebook"))
    for executor in executors:
        entries += [
            fuzz("bipolar", "image", *executor, "--backend", "packed-bipolar"),
            fuzz("binary", "image", *executor, "--backend", "packed"),
            fuzz("bipolar-remat", "image", *executor, "--codebook", "rematerialized",
                 "--backend", "packed-bipolar"),
        ]
    entries += [
        fuzz("bipolar", "image", "--unguided", "--per-class"),
        fuzz("binary", "image", "--backend", "dense", "--executor", "batched"),
        fuzz("binary-remat", "image", "--backend", "packed", "--executor", "batched",
             *ensemble, "--shared-codebook"),
        fuzz("bipolar", "image", "--executor", "batched", *ensemble, "--oracle", "majority"),
        fuzz("bipolar", "image", "--executor", "batched", *ensemble, "--shared-codebook",
             "--oracle", "majority", "--backend", "packed-bipolar"),
        fuzz("bipolar", "image", "--executor", "batched", "--telemetry",
             stream("fixed"), "--progress"),
        fuzz("bipolar", "image", "--executor", "process", "--workers", "2", *ensemble,
             "--shared-codebook", "--telemetry", stream("ensemble")),
        fuzz("bipolar", "image", "--profile", "--telemetry", stream("profile")),
        fuzz("bipolar", "image", "--adaptive", "--n-adversarial", "6",
             "--schedule", "uniform", "--block-size", "2", "--executor", "serial",
             "--telemetry", stream("adaptive"), "--progress"),
        fuzz("bipolar", "image", "--adaptive", "--n-adversarial", "6",
             "--schedule", "thompson", "--static-corpus", "--no-minimize",
             "--executor", "process", "--workers", "2", *ensemble, "--profile"),
    ]
    defend = ["--n-adversarial", "8", "--seed", "7"]
    for executor in executors:
        entries.append(["defend", "--model", model("bipolar"), *defend, *executor])
    entries += [
        ["defend", "--model", model("bipolar"), *defend, "--strategy", "shift",
         "--backend", "packed-bipolar", "--executor", "batched"],
        ["defend", "--model", model("binary"), *defend, "--backend", "packed",
         "--executor", "batched"],
        ["defend", "--model", model("bipolar-remat"), *defend, "--strategy", "rand"],
    ]
    for name in ("fixed", "ensemble", "profile", "adaptive"):
        entries.append(["report", stream(name)])
    entries.append(["report", stream("fixed"), "--out", str(tmp / "report.md")])
    entries.append(["report", "--model", model("bipolar"), "--n-fuzz", "4",
                    "--n-adversarial", "6", "--n-images", "40", "--seed", "7"])
    return entries


def _run_cli(argv: list[str]) -> None:
    from repro.cli import main

    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    if status not in (0, None):
        raise RuntimeError(f"exit status {status}")


def _run_perfbench(name: str, trace: bool) -> None:
    from harness import run_workload
    from workloads import TINY

    record = run_workload(name, seed=1, seconds=0.1, trace=trace, scale=TINY)
    if not record["correct"] or record["failed"]:
        raise RuntimeError(f"{record['failed']} failed units: {record['errors']}")


def _entries(tmp: Path) -> list[tuple[str, object]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    entries: list[tuple[str, object]] = [
        ("hdtest " + " ".join(argv).replace(str(tmp) + os.sep, ""),
         lambda argv=argv: _run_cli(argv))
        for argv in _cli_entries(tmp)
    ]
    for name in sorted(WORKLOADS):
        for trace in (False, True):
            entries.append((f"perfbench {name} trace={int(trace)}",
                            lambda name=name, trace=trace: _run_perfbench(name, trace)))
    return entries


def _run_entries(tmp: Path) -> list[str]:
    """Run every entry under the hook; return the labels of those that failed."""
    failed = []
    entries = _entries(tmp)
    for index, (label, run) in enumerate(entries, 1):
        print(f"[{index}/{len(entries)}] {label}", file=sys.stderr, flush=True)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                run()
        except Exception:
            failed.append(label)
            print(out.getvalue()[-2000:] + traceback.format_exc(), file=sys.stderr)
        gc.collect()  # lets an unclosed process pool shut its workers down
    return failed


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")


def main(argv=None) -> int:
    global _worker_dir
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-unreached", type=int, default=None, metavar="N",
                        help="exit 1 when more than N functions are unreached")
    args = parser.parse_args(argv)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    functions = _functions()

    _entered.clear()
    previous = sys.gettrace(), threading.gettrace()
    with tempfile.TemporaryDirectory(prefix="reachability-") as workdir:
        tmp = Path(workdir)
        workers = tmp / "workers"
        workers.mkdir()
        _worker_dir = str(workers)
        threading.settrace(_record)
        sys.settrace(_record)
        try:
            _import_program()  # import-time calls (registries) count as entered
            failed = _run_entries(tmp)
        finally:
            sys.settrace(previous[0])
            threading.settrace(previous[1])
            _worker_dir = ""
        gc.collect()
        entered = _entered_keys(workers) & functions.keys()

    unreached = sorted(functions.keys() - entered, key=lambda k: (k[0], k[1]))
    by_module: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for path, lineno, name in unreached:
        module = os.path.relpath(path, SRC)
        by_module[module].append((lineno, functions[(path, lineno, name)]))
    for module in sorted(by_module):
        print(f"{module} ({len(by_module[module])})")
        for lineno, qualname in by_module[module]:
            print(f"  {lineno:5d}  {qualname}")
    print(f"\nentered {len(entered)} of {len(functions)} functions in src/repro; "
          f"{len(unreached)} unreached")
    status = 0
    if failed:
        print(f"{len(failed)} entry point(s) failed:", *failed, sep="\n  ")
        status = 1
    if args.max_unreached is not None and len(unreached) > args.max_unreached:
        print(f"{len(unreached)} unreached functions exceed --max-unreached "
              f"{args.max_unreached}: reach them from an entry point or delete them")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
