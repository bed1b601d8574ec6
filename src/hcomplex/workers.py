"""A second process for the large face tables: one forked worker at a time.

``both(stage, faces, here, there)`` returns ``(here(), there())``.  When
``worth_a_worker(faces)`` holds for a table of ``faces`` faces, ``there()``
runs in a child made by ``os.fork`` while this process runs ``here()``; the
child pickles its result (or its exception) into a pipe and leaves through
``os._exit``, so it never flushes or writes stdout.  The child's copy of the
table is the parent's, shared copy-on-write, and nothing is sent to it.

``split(stage, size, scan)`` runs a per-face scan over the ids [0, size):
one ``scan(0, size)`` call in process, or ``scan(0, size // 2)`` here and
``scan(size // 2, size)`` in the worker, the two results joined by ``+=``,
so the caller gets one result in id order either way.

There is no option: a worker is used exactly when ``os.fork`` exists, this
process may run on two CPUs or more, and the table has ``MIN_FACES`` faces
or more.  Anything smaller runs in process, where the fork and the pickled
result would cost more than the half of the work they save.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, NoReturn

# 7!: from the n = 7 table on, a forked half saves more than the fork and the
# pickled result cost (BENCH_two_process_row.json)
MIN_FACES = 5040

_in_worker = False  # True in a worker, which never forks one of its own


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worth_a_worker(faces: int) -> bool:
    """True iff work on a table of ``faces`` faces forks a worker."""
    return faces >= MIN_FACES and not _in_worker and hasattr(os, "fork") and cpu_count() >= 2


def split(stage: str, size: int, scan: Callable[[int, int], Any]) -> Any:
    """``scan(0, size)``, or with a worker the lower half of [0, size)
    joined by ``+=`` to the upper half, which is scanned in the worker."""
    if not worth_a_worker(size):
        return scan(0, size)
    mid = size // 2
    lower, upper = both(stage, size, partial(scan, 0, mid), partial(scan, mid, size))
    lower += upper
    return lower


def both(stage: str, faces: int, here: Callable[[], Any], there: Callable[[], Any]) -> tuple:
    """``(here(), there())``; on a table of ``faces`` faces that is
    ``worth_a_worker``, ``there()`` runs in a forked worker meanwhile.

    An exception ``there()`` raises in the worker is raised here again, same
    type and message; a worker that ends without its whole result raises
    RuntimeError naming ``stage``.  If ``here()`` raises, the worker is
    killed.  Either way it is reaped before this returns.  When ``os.fork``
    fails, both run in process.
    """
    if not worth_a_worker(faces):
        return here(), there()
    import pickle  # only a worker's result needs it
    import signal

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return here(), there()
    if pid == 0:
        _serve(stage, there, read_fd, write_fd)
    os.close(write_fd)
    del there  # what only the worker reads need not stay alive here
    try:
        with open(read_fd, "rb") as pipe:
            mine = here()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not data:
        raise RuntimeError(f"{stage}: the worker exited with code {code} and sent no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return mine, value


def _serve(stage: str, there: Callable[[], object], read_fd: int, write_fd: int) -> NoReturn:
    """The worker: send ``there()``, or the exception it raised, down the
    pipe, then leave without flushing or running any exit handler."""
    import pickle

    global _in_worker
    _in_worker = True
    try:
        os.close(read_fd)
        try:
            data = pickle.dumps((True, there()), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # sent to the parent, raised there
            data = _pickled_failure(stage, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _pickled_failure(stage: str, exc: BaseException) -> bytes:
    """``exc`` pickled for the parent, or a RuntimeError naming it when it
    does not survive the round trip."""
    import pickle

    try:
        data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(
            (False, RuntimeError(f"{stage}: {type(exc).__name__}: {exc}")),
            pickle.HIGHEST_PROTOCOL,
        )
    return data
