import sys
from pathlib import Path

# make `import oracles` work regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from twobridge import curves, morse, serialize

# taken at import, so a test that patches one still clears the cache
_CACHES = (morse._last_model, curves._strip, morse._catalogue_key, serialize.export_json)


@pytest.fixture
def cold():
    """``cold(function, *args)`` calls ``function`` as a fresh process
    would: the model assembled last, the text exported last, the shared
    strips and the catalogue keys that ``build_block`` checked are
    forgotten first, so an import really assembles, an assembly really
    builds its strips, ``build_block`` really checks a strip, and an
    export really serialises."""

    def call(function, *args):
        for cache in _CACHES:
            cache.cache_clear()
        return function(*args)

    return call
