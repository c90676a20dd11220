"""Suite-wide settings: one hypothesis profile for every property-based test.

Examples are derandomized, so each run replays the same ones; they have no
deadline, since on a loaded machine one example's time says nothing; and no
example database is kept.  Hypothesis also caches the constants it reads
from the source, whatever the profile says; that cache goes under pytest's
own `.pytest_cache`, so no `.hypothesis/` directory is written.
"""

import os
from pathlib import Path

from hypothesis import settings

CACHE = Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis"
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(CACHE))
settings.register_profile("fedridge", derandomize=True, deadline=None, database=None)
settings.load_profile("fedridge")
