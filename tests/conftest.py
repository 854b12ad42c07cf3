import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """``measure(fn, *args)``: the peak bytes that ``fn(*args)`` allocates above what was live before.

    Counted by ``tracemalloc``, which sees numpy's array buffers, those
    that BLAS and LAPACK wrappers allocate included; it does not see the
    private workspace of a Fortran routine.
    """

    def measure(fn, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure
