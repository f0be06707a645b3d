"""The process heap policy (:mod:`repro.util.heap`)."""

import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.util import heap

SRC = Path(__file__).resolve().parent.parent / "src"


def test_retain_heap_is_idempotent(monkeypatch):
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(heap, "_libc", lambda: libc)
    assert heap.retain_heap() and heap.retain_heap()
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)] * 2


def test_retain_heap_is_idempotent_on_this_libc():
    first = heap.retain_heap()
    assert heap.retain_heap() is first
    if platform.libc_ver()[0] == "glibc":
        assert first


@pytest.mark.parametrize("libc", [object(), None])
def test_without_mallopt_it_does_nothing(monkeypatch, libc):
    def no_libc():
        if libc is None:
            raise OSError("no C library")
        return libc

    monkeypatch.setattr(heap, "_libc", no_libc)
    assert heap.retain_heap() is False


def test_trim_threshold_is_twice_the_sampler_chunk():
    from repro.sim.congestion_sim import _CHUNK_BYTES

    assert heap.TRIM_THRESHOLD == 2 * _CHUNK_BYTES


def test_cli_main_sets_the_policy_first(monkeypatch):
    import repro.cli

    class Called(Exception):
        pass

    def retain_heap():
        raise Called

    monkeypatch.setattr(repro.cli, "retain_heap", retain_heap)
    # Raised before argument parsing, which would exit on this flag.
    with pytest.raises(Called):
        repro.cli.main(["--no-such-flag"])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_table2_shards_do_not_refault_the_heap(tmp_path):
    """Without the policy this run takes about 110k minor faults (each
    w = 256 shard faults its freed address blocks back in); with it,
    about 8.6k."""
    import resource

    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run(
        [sys.executable, "-m", "repro", "table2", "--widths", "256",
         "--trials", "50", "--workers", "1", "--no-cache"],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert faults < 30_000
