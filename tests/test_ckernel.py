"""The C wormhole kernel's build cache: atomic, self-repairing, never silent.

:mod:`repro.noc.ckernel` compiles ``wormhole.c`` on first use and caches
the library per user. Every test here builds into its own temporary cache
directory (subprocesses get a temporary ``HOME``), never the real one:

* nothing compiles or loads at import, and a second fresh interpreter
  loads the cached library without running the compiler;
* two interpreters building at once both end with a good library, and
  no temporary file is left behind;
* a truncated or corrupt cached library is rebuilt;
* a cache directory that cannot be written falls back to a temporary one;
* when the kernel cannot be had, one ``RuntimeWarning`` names the reason
  and the numpy lockstep loop still reproduces the frozen reference.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.noc import batchengine, ckernel
from repro.noc.reference import ReferenceWormholeSimulator
from repro.noc.simulator import WormholeSimulator

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler: the kernel cannot be built",
)


def _smoke(kernel) -> None:
    """Call the loaded kernel on zero replications."""
    ffi, lib = kernel
    null = ffi.NULL
    assert lib.wormhole_run(0, 0, 0, 1, 1, 1, 0, 0, *[null] * 4, 0,
                            *[null] * 10) == 0


def _libraries(directory: Path):
    return sorted(p.name for p in directory.iterdir())


def _child(home: Path, *bodies: str) -> subprocess.Popen:
    """A fresh interpreter running ``bodies`` with ``home`` as its HOME."""
    env = dict(os.environ, HOME=str(home), PYTHONPATH=str(SRC))
    script = "\n".join(textwrap.dedent(body) for body in bodies)
    return subprocess.Popen(
        [sys.executable, "-c", script],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.strip()


_LOAD_STRICT = """
    import warnings
    warnings.simplefilter("error")
    from repro.noc import batchengine
    print(batchengine.kernel_name())
"""


def test_second_interpreter_only_dlopens(tmp_path):
    first = _child(tmp_path, """
        import sys
        import repro
        from repro.noc import batchengine, ckernel, simulator
        # Importing compiles and loads nothing.
        assert "cffi" not in sys.modules
        assert ckernel.load.cache_info().currsize == 0
        print(batchengine.kernel_name())
    """)
    assert _finish(first) == "c"
    cache = tmp_path / ".cache" / "repro"
    (name,) = _libraries(cache)
    built = (cache / name).stat()

    second = _child(tmp_path, """
        import subprocess

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"compiler invoked: {args}")

        subprocess.Popen = no_compiler
    """, _LOAD_STRICT)
    assert _finish(second) == "c"
    assert _libraries(cache) == [name]
    assert (cache / name).stat().st_mtime_ns == built.st_mtime_ns


def test_concurrent_first_builds_both_get_a_good_library(tmp_path):
    children = [_child(tmp_path, _LOAD_STRICT) for _ in range(2)]
    assert [_finish(c) for c in children] == ["c", "c"]
    names = _libraries(tmp_path / ".cache" / "repro")
    assert len(names) == 1 and names[0].endswith(".so"), names
    assert not names[0].startswith(".tmp-")


@pytest.mark.parametrize("damage", ["truncated", "empty", "garbage"])
def test_corrupt_cached_library_is_rebuilt(tmp_path, damage):
    good_dir, bad_dir = tmp_path / "good", tmp_path / "bad"
    _smoke(ckernel._load(good_dir))
    (name,) = _libraries(good_dir)
    good = (good_dir / name).read_bytes()
    bad_dir.mkdir()
    (bad_dir / name).write_bytes({
        "truncated": good[:len(good) // 2],
        "empty": b"",
        "garbage": b"\x7fELF" + b"\0" * 100,
    }[damage])

    # Loading the damaged bytes would raise or, truncated, kill the
    # process with SIGBUS: the digest check must catch them first.
    _smoke(ckernel._load(bad_dir))
    assert _libraries(bad_dir) == [name]
    assert (bad_dir / name).read_bytes() == good


def test_unwritable_cache_dir_falls_back_to_a_temp_dir(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    leftovers = set(Path(tempfile.gettempdir()).glob("repro-kernel-*"))

    _smoke(ckernel._load(blocker / "cache"))
    assert blocker.read_text() == ""
    # The private build directory is gone once the library is loaded.
    assert set(Path(tempfile.gettempdir()).glob("repro-kernel-*")) <= (
        leftovers
    )


@pytest.fixture
def fresh_load():
    """``ckernel.load`` forgets its process-wide result before and after
    the test (after any monkeypatching is undone, the real kernel loads
    again on the next call)."""
    ckernel.load.cache_clear()
    yield
    ckernel.load.cache_clear()


def _no_compiler():
    raise OSError("no C compiler (cc or gcc) on PATH")


@pytest.mark.parametrize("cause,match", [
    ("compiler", "no C compiler"),
    ("cffi", "cffi"),
])
def test_fallback_warns_once_and_matches_reference(
    monkeypatch, fresh_load, contended_topo, cause, match
):
    if cause == "compiler":
        monkeypatch.setattr(ckernel, "_compiler", _no_compiler)
    else:
        monkeypatch.setitem(sys.modules, "cffi", None)  # import fails
    kw = dict(cycles=600, warmup=100, injection_scale=2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = []
        solo = WormholeSimulator(contended_topo, seed=4).run(
            trace=trace, **kw
        )
        batch = WormholeSimulator(contended_topo).run_batch([4, 5], **kw)
        assert batchengine.kernel_name() == "numpy"
    (warning,) = [w for w in caught if w.category is RuntimeWarning]
    assert match in str(warning.message)
    assert "numpy" in str(warning.message)

    ref_trace = []
    ref = ReferenceWormholeSimulator(contended_topo, seed=4).run(
        trace=ref_trace, **kw
    )
    assert solo == batch[0] == ref
    assert trace == ref_trace


def test_compiler_error_is_named_in_the_warning(
    tmp_path, monkeypatch, fresh_load
):
    broken = tmp_path / "broken.c"
    broken.write_text("int wormhole_run(void) { return }\n")
    cache = tmp_path / "cache"
    monkeypatch.setattr(ckernel, "SOURCE", broken)
    monkeypatch.setattr(ckernel, "cache_dir", lambda: cache)

    with pytest.warns(RuntimeWarning, match="error") as caught:
        assert ckernel.load() is None
    assert "exited with" in str(caught[0].message)
    assert _libraries(cache) == []  # the failed build left no temp file
