"""``BatchedHDTest``: another name for :class:`~repro.fuzz.fuzzer.HDTest`.

:class:`~repro.fuzz.fuzzer.HDTest` is the one engine class: its
:meth:`~repro.fuzz.fuzzer.HDTest.fuzz_outcomes` runs Alg. 1 in
lock-step over many inputs, and every schedule draws input *i*'s
mutations from the *i*-th generator spawned from the root seed.  The
name stays importable for existing callers.  Its ``fuzz`` is
:meth:`HDTest.fuzz <repro.fuzz.fuzzer.HDTest.fuzz>`, which gives the
same outcomes one input at a time; for lock-step use
``BatchedExecutor().run(...)`` or ``fuzz_outcomes``.
"""

from repro.fuzz.fuzzer import HDTest

__all__ = ["BatchedHDTest"]

BatchedHDTest = HDTest
