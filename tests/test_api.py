"""The public names each module exports."""

import pytest

from homodyne_shadows import fockcore, povm, shadow, sim, states


@pytest.mark.parametrize("module", [fockcore, povm, shadow, sim, states], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
