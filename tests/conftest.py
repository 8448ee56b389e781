"""Session-wide test setup."""

import pytest

from repro.backend import ckernels


@pytest.fixture(scope="session", autouse=True)
def _kernel_cache(tmp_path_factory):
    """Build the compiled kernels into a temporary cache, so a test run
    neither writes to nor depends on the user's ``~/.cache``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ckernels, "CACHE_ROOT",
                      str(tmp_path_factory.mktemp("kernel-cache")))
        yield
