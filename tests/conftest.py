import pytest

from pettylab import bodies, harness


@pytest.fixture
def cold_memo():
    """Empty what the process keeps between reports, the literal memo and
    the ball polytopes, before and after the test, so that what it builds,
    counts or patches does not depend on the tests run around it."""
    def clear():
        harness._literal_record.cache_clear()
        bodies.ball_body.cache_clear()

    clear()
    yield
    clear()
