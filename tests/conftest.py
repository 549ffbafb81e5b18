import sys
from pathlib import Path

# make `import oracles` work regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from twobridge import morse, serialize


@pytest.fixture
def cold():
    """``cold(function, *args)`` calls ``function`` as a fresh process
    would: the model assembled last and the text exported last are
    forgotten first, so an import really assembles and an export really
    serialises."""

    def call(function, *args):
        morse._last_model.cache_clear()
        serialize.export_json.cache_clear()
        return function(*args)

    return call
