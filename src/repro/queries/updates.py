"""The 8 transactional update queries (paper §4 and Table 9).

"Insert operations in SNB are generated by the data generator ... There
are the following types of update queries in the generated data: add a
user account, add friendship, add a forum to the social network, create
forum membership for a user, add a post/comment, add a like to a
post/comment."

Each executor runs one :class:`~repro.datagen.update_stream.UpdateOperation`
inside its own ACID transaction, using the same schema mapping as the bulk
loader, so DML-inserted data is indistinguishable from bulk-loaded data.
"""

from __future__ import annotations

from typing import Callable

from ..datagen.update_stream import UpdateKind, UpdateOperation
from ..errors import WorkloadError
from ..store.graph import GraphStore, IsolationLevel
from ..store.loader import (
    insert_comment,
    insert_forum,
    insert_friendship,
    insert_like,
    insert_membership,
    insert_person,
    insert_post,
)

#: UpdateKind → function(txn, payload)
_EXECUTOR_BY_KIND: dict[UpdateKind, Callable] = {
    UpdateKind.ADD_PERSON: insert_person,
    UpdateKind.ADD_FRIENDSHIP: insert_friendship,
    UpdateKind.ADD_FORUM: insert_forum,
    UpdateKind.ADD_FORUM_MEMBERSHIP: insert_membership,
    UpdateKind.ADD_POST: insert_post,
    UpdateKind.ADD_COMMENT: insert_comment,
    UpdateKind.ADD_LIKE_POST: insert_like,
    UpdateKind.ADD_LIKE_COMMENT: insert_like,
}


def execute_update(store: GraphStore, operation: UpdateOperation,
                   isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
                   ) -> None:
    """Apply one update operation in its own committed transaction;
    a replay of an applied update commits nothing."""
    executor = _EXECUTOR_BY_KIND.get(operation.kind)
    if executor is None:
        raise WorkloadError(f"no executor for {operation.kind}")
    with store.transaction(isolation) as txn:
        txn.key = operation.natural_key
        executor(txn, operation.payload)


def executor_for(kind: UpdateKind) -> Callable:
    """The raw ``(txn, payload)`` executor for one update kind."""
    executor = _EXECUTOR_BY_KIND.get(kind)
    if executor is None:
        raise WorkloadError(f"no executor for {kind}")
    return executor
