"""Cross-SUT update parity: every update kind, observed through short
reads over the touched entities."""

from __future__ import annotations

from repro.core.operation import ShortRead, Update
from repro.core.sut import EngineSUT, StoreSUT
from repro.datagen.update_stream import UpdateKind
from repro.validation import canonicalize
from repro.validation.differential import touched_refs

_PERSON_SHORTS = (1, 2, 3)
_MESSAGE_SHORTS = (4, 5, 6, 7)


def _pools(ref):
    return _PERSON_SHORTS if ref.is_person else _MESSAGE_SHORTS


class TestUpdateParity:
    def test_all_eight_kinds_agree_through_short_reads(self,
                                                       small_split):
        """Apply the full stream to both SUTs; after the first update
        of each kind, every short read over the touched entities must
        agree — then the final full-graph states must be identical."""
        store = StoreSUT.for_network(small_split.bulk)
        engine = EngineSUT.for_network(small_split.bulk)
        seen: set[UpdateKind] = set()
        for op in small_split.updates:
            store.execute(Update(op))
            engine.execute(Update(op))
            if op.kind in seen:
                continue
            seen.add(op.kind)
            for ref in touched_refs(op):
                for query_id in _pools(ref):
                    read = ShortRead(query_id, ref)
                    left = canonicalize(store.execute(read).value)
                    right = canonicalize(engine.execute(read).value)
                    assert left == right, \
                        f"S{query_id} on {ref} after {op.kind.name}"
        assert seen == set(UpdateKind), \
            f"stream lacks kinds: {set(UpdateKind) - seen}"
        assert store.digest() == engine.digest()
