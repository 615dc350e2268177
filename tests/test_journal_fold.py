"""The session journal's diff commits, fold, and single read.

A journaled round appends only its diff against the previous commit, and
recovery folds those diffs back into the state.  The property that makes
that safe: after *any* round, a session resumed from the file equals the
live session.  Seeded random round sequences check it on the registry and
genomics settings through every kind of round a session sees: stamped
snapshots and deltas, unstamped rounds, stale redeliveries, an epoch bump,
a broken delta chain, a degraded round under a budget, a rejected round
(the pinned facts lose their support), withdrawals, and a crash that
continues on the resumed session.  Forty seeds per setting run in tier-1;
four hundred more are marked ``slow``.

Two count guards pin the cost model: a journal object reads its file at
most once, and a steady-state delta round appends a small fraction of the
first commit.  The rest covers the single read's repairs (a torn tail is
sealed before the next append, a failed append forces a re-read) and the
journal lock (a load racing a commit must not rewind the diff base).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.atoms import Fact
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.core.terms import Constant
from repro.io.serialization import instance_from_dict
from repro.runtime import Budget, SessionJournal
from repro.runtime import journal as journal_module
from repro.sync import Stamp, SyncSession
from repro.workloads import generate_genomics_feed, genomics_setting


def _fact(relation: str, *values: str) -> Fact:
    return Fact(relation, tuple(Constant(value) for value in values))


def _registry() -> tuple[PDESetting, list[Fact], Instance, Fact]:
    setting = PDESetting.from_text(
        source={"reg": 2},
        target={"db": 2},
        st="reg(k, v) -> db(k, v)",
        ts="db(k, v) -> reg(k, v)",
        name="registry",
    )
    universe = [_fact("reg", f"k{i}", f"v{j}") for i in range(6) for j in range(2)]
    pinned = Instance([_fact("db", "k0", "v0")], schema=setting.target_schema)
    return setting, universe, pinned, _fact("reg", "k0", "v0")


def _genomics() -> tuple[PDESetting, list[Fact], Instance, Fact]:
    setting = genomics_setting()
    universe = []
    for i in range(6):
        acc = f"P{i}"
        universe.append(_fact("protein", acc, f"PROT_{i}", "human"))
        universe.append(_fact("annotation", acc, f"GO:{i}"))
        universe.append(_fact("citation", acc, f"PMID{i}"))
    pinned = Instance(
        [_fact("local_protein", "P0", "PROT_0", "human")],
        schema=setting.target_schema,
    )
    return setting, universe, pinned, _fact("protein", "P0", "PROT_0", "human")


SETTINGS = {"registry": _registry, "genomics": _genomics}

ACTIONS = (
    ["snapshot"] * 3 + ["delta"] * 3
    + ["unstamped", "stale", "epoch", "broken", "degraded", "crash"]
)


def _last_commit(path) -> dict:
    return json.loads(path.read_text().splitlines()[-1])


def _assert_resumes_to(session: SyncSession, path) -> None:
    journal = SessionJournal(path)
    if not journal.exists():
        assert session.rounds == 0
        return
    resumed = SyncSession.resume(journal)
    assert resumed.state() == session.state()
    assert resumed.rounds == session.rounds
    assert resumed.last_stamp == session.last_stamp
    assert resumed.last_source == session.last_source


def _run_sequence(name: str, seed: int, tmp_path, rounds: int = 12) -> None:
    setting, universe, pinned, support = SETTINGS[name]()
    rng = random.Random(seed)
    path = tmp_path / f"{name}-{seed}.journal"
    session = SyncSession(setting, pinned=pinned, journal=SessionJournal(path))
    source = Instance(
        [fact for fact in universe if rng.random() < 0.5] + [support],
        schema=setting.source_schema,
    )
    epoch, seq = 1, 0
    published: list[tuple[Stamp, Instance]] = []

    def mutate(current: Instance) -> Instance:
        facts = [fact for fact in universe if (fact in current) != (rng.random() < 0.25)]
        if rng.random() < 0.9:
            facts.append(support)  # else the pinned facts lose support
        return Instance(facts, schema=setting.source_schema)

    for _ in range(rounds):
        action = rng.choice(ACTIONS)
        rounds_before = session.rounds
        outcome = None
        if action == "crash":
            session = SyncSession.resume(SessionJournal(path)) if path.exists() else (
                SyncSession(setting, pinned=pinned, journal=SessionJournal(path))
            )
        elif action == "stale" and published:
            stamp, snapshot = rng.choice(published)
            outcome = session.sync(snapshot, stamp=stamp)
        elif action == "unstamped":
            source = mutate(source)
            outcome = session.sync(source)
        elif action in ("delta", "broken") and published:
            base_stamp, base = published[-1]
            source = mutate(source)
            seq += 1
            stamp = Stamp(epoch, seq)
            if action == "broken":
                base_stamp = Stamp(epoch, seq + 7)  # no snapshot has this stamp
            outcome = session.sync_delta(
                added=source.difference(base),
                withdrawn=base.difference(source),
                base=base_stamp,
                stamp=stamp,
            )
            published.append((stamp, source))
        else:  # snapshot, epoch, degraded (and stale/delta before any publish)
            if action == "epoch":
                epoch, seq = epoch + 1, 0
            source = mutate(source)
            seq += 1
            stamp = Stamp(epoch, seq)
            budget = Budget(chase_step_cap=1) if action == "degraded" else None
            outcome = session.sync(source, stamp=stamp, budget=budget)
            published.append((stamp, source))

        if session.rounds > rounds_before and outcome is not None:
            commit = _last_commit(path)
            assert commit["round"] == session.rounds
            added = instance_from_dict(commit["imported"]["add"])
            assert added == outcome.added
        _assert_resumes_to(session, path)


@pytest.mark.parametrize("name", sorted(SETTINGS))
@pytest.mark.parametrize("seed", range(40))
def test_resume_equals_live_session_after_every_round(name, seed, tmp_path):
    _run_sequence(name, seed, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SETTINGS))
@pytest.mark.parametrize("seed", range(40, 440))
def test_resume_equals_live_session_after_every_round_soak(name, seed, tmp_path):
    _run_sequence(name, seed, tmp_path)


# ---------------------------------------------------------------------------
# count guards
# ---------------------------------------------------------------------------


def _feed_rounds(session: SyncSession, feed: list[Instance]):
    """Snapshot round for the first snapshot, ``sync_delta`` for the rest."""
    for offset, snapshot in enumerate(feed):
        stamp = Stamp(1, offset + 1)
        if offset == 0:
            outcome = session.sync(snapshot, stamp=stamp)
        else:
            base = session.last_source
            outcome = session.sync_delta(
                added=snapshot.difference(base),
                withdrawn=base.difference(snapshot),
                base=session.last_stamp,
                stamp=stamp,
            )
        assert outcome.ok and not outcome.stale and not outcome.chain_broken
        yield outcome


@pytest.fixture
def churn_feed() -> list[Instance]:
    return generate_genomics_feed(rounds=10, proteins=300, churn=0.05)


def test_journal_reads_its_file_at_most_once(tmp_path, monkeypatch, churn_feed):
    reads = []
    real_read = journal_module.read_jsonl_tolerant

    def counting_read(*args, **kwargs):
        reads.append(args)
        return real_read(*args, **kwargs)

    monkeypatch.setattr(journal_module, "read_jsonl_tolerant", counting_read)
    path = tmp_path / "session.journal"
    session = SyncSession(genomics_setting(), journal=SessionJournal(path))
    for _ in _feed_rounds(session, churn_feed):
        pass
    assert len(reads) == 0

    resumed = SyncSession.resume(SessionJournal(path))
    assert len(reads) == 1
    # The resumed session commits on without reading again.
    assert resumed.sync(churn_feed[-1]).ok
    assert resumed.rounds == 11
    assert len(reads) == 1


def test_delta_rounds_append_a_fraction_of_the_first_commit(tmp_path, churn_feed):
    path = tmp_path / "session.journal"
    session = SyncSession(genomics_setting(), journal=SessionJournal(path))
    sizes = []
    for _ in _feed_rounds(session, churn_feed):
        sizes.append(path.stat().st_size)
    header = len(path.read_text().splitlines()[0]) + 1
    first_commit = sizes[0] - header
    appended = [after - before for before, after in zip(sizes, sizes[1:])]
    assert len(appended) == 9
    assert max(appended) <= first_commit / 3, (first_commit, appended)


# ---------------------------------------------------------------------------
# the single read and the torn tail
# ---------------------------------------------------------------------------


def test_ensure_header_on_an_existing_file_diffs_against_its_fold(tmp_path):
    setting, universe, _, _ = _registry()
    path = tmp_path / "session.journal"
    first = SyncSession(setting, journal=SessionJournal(path))
    assert first.sync(Instance(universe[:6]), stamp=Stamp(1, 1)).ok

    # A new session over the same file without resume: its first commit
    # reads the file once and diffs against the folded state.
    second = SyncSession(setting, journal=SessionJournal(path))
    assert second.sync(Instance(universe[4:8])).ok
    resumed = SyncSession.resume(SessionJournal(path))
    assert resumed.state() == second.state()
    assert resumed.rounds == 1
    assert resumed.last_stamp == Stamp(1, 1)  # sticky across the unstamped commit
    assert resumed.last_source == Instance(universe[:6])


@pytest.mark.parametrize(
    "torn, committed",
    [
        ('{"type": "commit", "round": 2, "imp', 1),  # cut off: dropped
        ('{"type": "commit", "round": 2, "imported": {}}', 2),  # only the newline lost
    ],
)
def test_full_read_seals_a_torn_tail(tmp_path, torn, committed):
    setting, universe, _, _ = _registry()
    path = tmp_path / "session.journal"
    session = SyncSession(setting, journal=SessionJournal(path))
    assert session.sync(Instance(universe[:4])).ok
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(torn)  # no newline: the append was torn

    resumed = SyncSession.resume(SessionJournal(path))
    assert resumed.rounds == committed
    assert path.read_text().endswith("\n")
    assert resumed.sync(Instance(universe[2:6])).ok
    again = SyncSession.resume(SessionJournal(path))
    assert again.state() == resumed.state()
    assert again.rounds == committed + 1


def test_failed_append_forgets_rows_and_rereads(tmp_path, monkeypatch):
    setting, universe, _, _ = _registry()
    path = tmp_path / "session.journal"
    session = SyncSession(setting, journal=SessionJournal(path))
    assert session.sync(Instance(universe[:4])).ok
    real_append = journal_module.append_jsonl

    def torn_append(target, record):
        with open(target, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record)[:20])
        raise OSError("disk full")

    monkeypatch.setattr(journal_module, "append_jsonl", torn_append)
    with pytest.raises(OSError):
        session.sync(Instance(universe[2:8]))
    monkeypatch.setattr(journal_module, "append_jsonl", real_append)

    assert session.rounds == 1
    assert session.sync(Instance(universe[2:8])).ok
    resumed = SyncSession.resume(SessionJournal(path))
    assert resumed.state() == session.state()
    assert resumed.rounds == 2


def test_concurrent_commits_and_loads_keep_the_fold_exact(tmp_path):
    # A daemon commits rounds on a worker thread while a crash-and-restart
    # resumes on the event loop thread, both through one journal object:
    # a load that read the file before a commit must not leave the rows
    # the next commit diffs against rewound to before it.
    import sys
    import threading
    import time

    setting, _, _, _ = _registry()
    path = tmp_path / "session.journal"
    journal = SessionJournal(path)
    journal.ensure_header(setting, Instance())
    states = [
        Instance([_fact("db", f"k{i}", "v") for i in range(start, start + 60)])
        for start in range(0, 200, 20)
    ]
    rounds = 40
    errors: list[BaseException] = []
    done = threading.Event()

    def commit() -> None:
        try:
            for number in range(1, rounds + 1):
                journal.record_round(number, states[number % len(states)])
                time.sleep(0.002)  # the rest of the round
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)
        finally:
            done.set()

    def load() -> None:
        try:
            while not done.is_set():
                journal.load()
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=commit)]
    threads += [threading.Thread(target=load) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    state = SessionJournal(path).load()
    assert state.rounds == rounds
    assert state.imported == states[rounds % len(states)]
