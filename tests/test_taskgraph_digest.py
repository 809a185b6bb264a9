"""Every engine mode builds and traces ``fixtures/taskgraph_digests.json``:
golden ``taskgraph`` of :mod:`tests.goldens`, bound under this module's
name so its test ids stay put."""

from tests.goldens import bind

test_fixture_covers_every_case, test_case_replays_the_frozen_digest = bind(
    "taskgraph"
)
