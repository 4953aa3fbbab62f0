"""Test helper: the fan-outs of `doilab.experiments` run in one process per
CPU of the affinity mask, and a test sets that mask's size here."""

import os


def set_cpus(monkeypatch, count: int):
    """Make this process's affinity mask hold `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
