"""Tests for ``tools/reachability.py`` on a small package of its own.

The tool's real entry list runs every ``hdtest`` subcommand (seconds of
work, checked by CI's "Reachability ratchet" step); here its package,
import step and entries are swapped for a toy package whose functions
are entered directly, from a thread, from a forked process and under
``cProfile`` — the four ways the tool promises to see a call.
"""

import cProfile
import importlib
import importlib.util
import multiprocessing
import sys
import threading
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"

_spec = importlib.util.spec_from_file_location("reachability_tool", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

PACKAGE = "reachtoy"

MOD = '''\
def used():
    return helper()


def helper():
    return [n * n for n in range(3)]  # a comprehension is not a function


def unused():
    return 0


square = lambda x: x * x  # nor is a lambda


class Box:
    def method(self):
        return self.prop

    @property
    def prop(self):
        return 1

    def unused_method(self):
        return 2


def outer():
    def inner():
        return 3

    return inner


def in_thread():
    return 4


def in_child():
    return 5


def under_profile():
    return 6


def failing():
    raise RuntimeError("entry failed")
'''

OTHER = '''\
def lonely():
    return 7
'''

#: Every function of the toy package, by module.
FUNCTIONS = {
    "mod.py": {"used", "helper", "unused", "Box.method", "Box.prop",
               "Box.unused_method", "outer", "outer.<locals>.inner", "in_thread",
               "in_child", "under_profile", "failing"},
    "sub/other.py": {"lonely"},
}


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """The toy package on ``sys.path``; returns its ``src`` directory."""
    src = tmp_path_factory.mktemp("reach") / "src"
    package = src / PACKAGE
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MOD)
    (package / "sub" / "__init__.py").write_text("")
    (package / "sub" / "other.py").write_text(OTHER)
    sys.path.insert(0, str(src))
    yield src.resolve()
    sys.path.remove(str(src))
    for name in [name for name in sys.modules if name.split(".")[0] == PACKAGE]:
        del sys.modules[name]


def _mod():
    return importlib.import_module(f"{PACKAGE}.mod")


def _in_thread():
    thread = threading.Thread(target=_mod().in_thread)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()


def _in_child():
    # Forked, as the process executor's pool is: the tool's worker files
    # hang on os.register_at_fork.
    child = multiprocessing.get_context("fork").Process(target=_mod().in_child)
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0


ENTRIES = {
    "direct": lambda: (_mod().used(), _mod().Box().method(), _mod().outer()),
    "thread": _in_thread,
    "fork": _in_child,
    "profile": lambda: cProfile.Profile().runcall(_mod().under_profile),
}

#: What ENTRIES leave unreached: never called, or (``inner``) only returned.
UNREACHED = {"unused", "Box.unused_method", "outer.<locals>.inner", "failing", "lonely"}


@pytest.fixture()
def run(toy, monkeypatch, capsys):
    """Run the tool's ``main`` over the toy package and the given entries."""
    monkeypatch.setattr(reach, "SRC", toy)
    monkeypatch.setattr(reach, "PACKAGE", toy / PACKAGE)
    monkeypatch.setattr(reach, "_import_program", _mod)

    def run(entries, *argv):
        monkeypatch.setattr(reach, "_entries", lambda tmp: list(entries.items()))
        status = reach.main(list(argv))
        return status, capsys.readouterr()

    return run


def _listed(out):
    """Qualnames the report lists as unreached."""
    return {line.split()[1] for line in out.splitlines() if line.startswith("  ")
            and line.split()[0].isdigit()}


def test_functions_are_the_package_defs(toy, monkeypatch):
    monkeypatch.setattr(reach, "PACKAGE", toy / PACKAGE)
    found = {}
    for (path, _, _), qualname in reach._functions().items():
        module = Path(path).relative_to(toy / PACKAGE).as_posix()
        found.setdefault(module, set()).add(qualname)
    assert found == FUNCTIONS


def test_lists_unreached_functions_by_module(run):
    status, captured = run(ENTRIES)
    assert status == 0
    assert _listed(captured.out) == UNREACHED
    assert f"{PACKAGE}/mod.py (4)" in captured.out
    assert f"{PACKAGE}/sub/other.py (1)" in captured.out
    assert "entered 8 of 13 functions in src/repro; 5 unreached" in captured.out


@pytest.mark.parametrize("how", sorted(ENTRIES))
def test_each_way_of_calling_counts_as_reached(run, how):
    reached = {"direct": {"used", "helper", "Box.method", "Box.prop", "outer"},
               "thread": {"in_thread"}, "fork": {"in_child"},
               "profile": {"under_profile"}}[how]
    _, captured = run({how: ENTRIES[how]})
    listed = _listed(captured.out)
    assert not reached & listed
    assert listed == set().union(*FUNCTIONS.values()) - reached


@pytest.mark.parametrize("limit,status", [(4, 1), (5, 0)])
def test_max_unreached_is_a_ceiling(run, limit, status):
    got, captured = run(ENTRIES, "--max-unreached", str(limit))
    assert got == status
    exceeded = "5 unreached functions exceed --max-unreached 4" in captured.out
    assert exceeded == (status == 1)


def test_a_failing_entry_fails_the_run_and_is_named(run):
    entries = dict(ENTRIES, broken=lambda: _mod().failing())
    status, captured = run(entries)
    assert status == 1
    assert "1 entry point(s) failed:\n  broken" in captured.out
    assert "RuntimeError: entry failed" in captured.err
    assert "failing" not in _listed(captured.out)  # it was entered


def test_a_second_run_counts_only_its_own_entries(run):
    run(ENTRIES)
    _, captured = run({"thread": _in_thread})
    assert "used" in _listed(captured.out)


def test_the_callers_trace_hooks_come_back(run):
    def tracer(frame, event, arg):
        return None

    sys_before, threading_before = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        run({"direct": ENTRIES["direct"]})
        assert sys.gettrace() is tracer
        assert threading.gettrace() is tracer
        assert reach._worker_dir == ""  # a later fork records nothing
    finally:
        sys.settrace(sys_before)
        threading.settrace(threading_before)
