"""numba shim: kernels are compiled when numba is available, and fall back to
the same code interpreted when it is not, or when ADAPTBUS_DISABLE_JIT=1.

The fallback is the identical source executed by CPython, so both paths are
bit-for-bit equivalent.  numba is the optional ``jit`` extra
(``pip install -e .[jit]``); ``python3 perfbench/run.py`` measures whichever
path is active.
"""

import os


def _disabled_by_env() -> bool:
    return os.environ.get("ADAPTBUS_DISABLE_JIT", "").strip().lower() in ("1", "true", "yes")


try:
    import numba as _numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via env flag instead
    HAVE_NUMBA = False

JIT_ENABLED = HAVE_NUMBA and not _disabled_by_env()

if JIT_ENABLED:

    def njit(*args, **kwargs):
        kwargs.setdefault("cache", True)
        return _numba.njit(*args, **kwargs)

else:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(func):
            return func

        return deco
