"""Scope that runs the OpenBLAS numpy bundles on one thread.

OpenBLAS splits a large enough matrix product across its threads, and
the split changes how each sum is ordered. A caller whose results must
not depend on the host's thread count (or that already shares its cores
with a process pool) wraps its work in :func:`single_thread`.

The thread count is process-wide state inside OpenBLAS, so the scope
also covers BLAS calls made by other threads while it is open, and
overlapping scopes (nested, or open on several threads) share one
count: the previous count comes back when the last of them closes. When
no OpenBLAS is found (numpy built against another BLAS), the scope does
nothing.
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from functools import cache

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

__all__ = ["single_thread", "thread_count"]

#: (setter, getter) symbol pairs: the scipy-openblas build that numpy 2
#: wheels bundle, the suffixed OpenBLAS of numpy 1 wheels, then a plain
#: OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@cache
def _openblas():
    """numpy's OpenBLAS thread setter and getter, or ``None``."""
    # A handle on numpy's extension module also resolves the symbols of
    # the libraries it links, wherever the wheel put them.
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for set_name, get_name in _SYMBOLS:
        try:
            setter = getattr(library, set_name)
            getter = getattr(library, get_name)
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


def thread_count() -> int | None:
    """OpenBLAS's current thread count, or ``None`` without OpenBLAS."""
    functions = _openblas()
    return None if functions is None else functions[1]()


class _OpenScopes:
    """How many :func:`single_thread` scopes are open, and the count to
    restore when the last one closes."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.open = 0
        self.restore = 1


_SCOPES = _OpenScopes()


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the enclosed BLAS calls on one thread; restore the previous
    count when the last open scope closes, also after an exception."""
    functions = _openblas()
    if functions is None:
        yield
        return
    setter, getter = functions
    with _SCOPES.lock:
        if _SCOPES.open == 0:
            _SCOPES.restore = getter()
            setter(1)
        _SCOPES.open += 1
    try:
        yield
    finally:
        with _SCOPES.lock:
            _SCOPES.open -= 1
            if _SCOPES.open == 0:
                setter(_SCOPES.restore)
