"""Tests for the process's core count."""

import os

from repro.utils import usable_cores


def test_counts_the_cores_in_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cores() == 1


def test_falls_back_to_the_host_count_without_an_affinity_api(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cores() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cores() == 1
