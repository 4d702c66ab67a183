import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.errors import InvalidArgument

sys.path.insert(0, str(Path(__file__).parent))

from dimspect import CarpetSpec, PointCloud

# On CI, a failing property test prints the blob that reproduces it
# (@reproduce_failure).  Hypothesis versions that ship a "ci" profile of
# their own keep its other settings.
try:
    _ci_parent = settings.get_profile("ci")
except InvalidArgument:
    _ci_parent = None
settings.register_profile("ci", _ci_parent, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def worked_carpet() -> CarpetSpec:
    """The 2x3 carpet with digits (0,0), (0,2), (1,1): columns hold 2 and 1 cells."""
    return CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)])


def random_carpet(rnd: random.Random, max_m: int = 3, max_n: int = 6) -> CarpetSpec:
    """A uniformly random valid carpet spec with at least two digits."""
    m = rnd.randint(2, max_m)
    n = rnd.randint(m + 1, max_n)
    cells = [(p, q) for p in range(m) for q in range(n)]
    count = rnd.randint(2, len(cells))
    return CarpetSpec.create(m, n, rnd.sample(cells, count))


@st.composite
def point_clouds(
    draw, max_points: int = 30, dimension: int | None = None, unit_box: bool = False
) -> PointCloud:
    """Clouds in R^dimension (default: R^1..R^3) at a random offset and spread.

    Coordinates mix arbitrary floats with points on a 1/16 grid, so that
    dyadic cells share boundaries and exact cost ties occur.  unit_box
    keeps every point in [0, 1]^n.
    """
    n = dimension or draw(st.integers(1, 3))
    offset = 0.0 if unit_box else draw(st.sampled_from([0.0, -1.0, 2.5]))
    spread = draw(st.sampled_from([1.0, 0.05] if unit_box else [1.0, 0.05, 3.0]))
    coord = st.one_of(
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        st.integers(0, 16).map(lambda k: k / 16.0),
    ).map(lambda u: offset + spread * u)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=max_points))
    return PointCloud.from_points(pts, dimension_n=n)
