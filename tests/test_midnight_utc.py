"""agent.midnight_utc against the datetime computation it replaced."""

from datetime import datetime, timezone

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from edgepark.agent import midnight_utc  # noqa: E402
from edgepark.occupancy import MS_PER_DAY  # noqa: E402

MIN_TS = -10**13  # 1653-02-10
MAX_TS = 253_402_300_799_999  # 9999-12-31T23:59:59.999Z, datetime's last millisecond


def datetime_midnight_utc(ts_ms: int) -> int:
    dt = datetime.fromtimestamp(ts_ms / 1000, tz=timezone.utc)
    midnight = dt.replace(hour=0, minute=0, second=0, microsecond=0)
    return int(midnight.timestamp() * 1000)


day_boundaries = st.builds(
    lambda day, offset: day * MS_PER_DAY + offset,
    st.integers(-(-MIN_TS // MS_PER_DAY), MAX_TS // MS_PER_DAY),
    st.integers(-1, 1),
)


@given(st.one_of(st.integers(MIN_TS, MAX_TS), day_boundaries))
@example(MIN_TS)
@example(MAX_TS)
@example(-1)
@example(0)
def test_midnight_utc_equals_the_datetime_computation(ts):
    assert midnight_utc(ts) == datetime_midnight_utc(ts)
