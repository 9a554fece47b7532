"""Unit tests for protocol message construction."""

from repro.network.message import Message, MessageType, Unit


def make(mtype=MessageType.GETX, chain=1):
    return Message(
        mtype=mtype, src=0, dst=1, unit=Unit.HOME, block=7,
        chain=chain, requester=0,
    )


def test_successor_extends_chain():
    base = make(chain=1)
    nxt = base.successor(MessageType.FLUSH_REQ, 1, 2, Unit.CACHE)
    assert nxt.chain == 2
    assert nxt.block == base.block
    assert nxt.requester == base.requester
    assert nxt.src == 1 and nxt.dst == 2


def test_sibling_same_depth_as_successor():
    base = make(chain=3)
    a = base.successor(MessageType.INV, 1, 2, Unit.CACHE)
    b = base.sibling(MessageType.DATA_X, 1, 0, Unit.CACHE)
    assert a.chain == b.chain == 4


def test_payload_kwargs_captured():
    base = make()
    nxt = base.successor(MessageType.DATA_X, 1, 0, Unit.CACHE, data=[1], acks=2)
    assert nxt.payload == {"data": [1], "acks": 2}


def test_message_ids_unique():
    a, b = make(), make()
    assert a.msg_id != b.msg_id


def test_carries_data_classification():
    assert MessageType.DATA_S.carries_data
    assert MessageType.DATA_X.carries_data
    assert MessageType.WB.carries_data
    assert MessageType.UPDATE.carries_data
    assert not MessageType.GETS.carries_data
    assert not MessageType.INV.carries_data
    assert not MessageType.INV_ACK.carries_data
    assert not MessageType.OWNER_NAK.carries_data


def _enum_classes():
    from repro.cache.line import LineState
    from repro.coherence.policy import SyncPolicy
    from repro.memory.directory import DirState
    from repro.primitives.semantics import PhiOp

    return (MessageType, Unit, SyncPolicy, LineState, DirState, PhiOp)


def _lookup_table_in_worker(_):
    """Runs in a worker process: a dict keyed by every member."""
    return {member: member.value
            for cls in _enum_classes() for member in cls}


def test_enum_members_hash_by_identity_and_survive_pickling():
    import pickle

    for cls in _enum_classes():
        assert cls.__hash__ is object.__hash__, cls
        table = {member: member.value for member in cls}
        for member in cls:
            clone = pickle.loads(pickle.dumps(member))
            assert clone is member
            assert table[clone] == member.value
        restored = pickle.loads(pickle.dumps(table))
        assert all(restored[member] == member.value for member in cls)


def test_enum_keyed_dicts_cross_process_boundaries():
    """The ``--jobs 2`` path: enum-keyed data built in a worker process
    (whose identity hashes differ) is looked up with the parent's
    members."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1) as pool:
        table = pool.submit(_lookup_table_in_worker, None).result()
    for cls in _enum_classes():
        for member in cls:
            assert table[member] == member.value
