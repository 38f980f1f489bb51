"""Session set-up and shared fixtures for the test suite.

When libcst is installed, hypothesis writes a failing test's patch through
it, and that imports `libcst.metadata.type_inference_provider`, whose
TypedDict class raises a DeprecationWarning from mypy_extensions.  Under
`-W error` that warning would end the run in INTERNALERROR and lose the
falsifying example, so the module is imported here first, with the warning
ignored.  Without libcst there is nothing to import."""

import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def functional_walks(monkeypatch) -> list:
    """Every (numbered paths, [(label, ends)]) that the invariant
    functional (`invariance.invariance_defects`) gives its shared trie walker
    and gets back, in call order."""
    from qsphere import invariance
    calls = []
    trie_walks = invariance.trie_walks

    def recorded(tables, paths, labels):
        calls.append((dict(paths), []))
        for label, ends in trie_walks(tables, paths, labels):
            calls[-1][1].append((label, list(ends)))
            yield label, ends
    monkeypatch.setattr(invariance, "trie_walks", recorded)
    return calls
