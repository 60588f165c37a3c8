import pytest


@pytest.fixture(autouse=True)
def private_model_cache(tmp_path, monkeypatch):
    """Every test keeps the dense field models it builds under its own
    tmp_path, never in the user's cache, and starts with none on disk."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
