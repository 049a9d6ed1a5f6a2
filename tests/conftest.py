import concurrent.futures

import pytest


@pytest.fixture
def built_pools(monkeypatch):
    """Every ``ProcessPoolExecutor`` built while the test runs, as
    [max_workers, processes forked by shutdown] pairs."""
    built = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers, **kwargs)
            self.record = [max_workers, 0]
            built.append(self.record)

        def shutdown(self, *args, **kwargs):
            self.record[1] = max(self.record[1], len(self._processes or ()))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return built
