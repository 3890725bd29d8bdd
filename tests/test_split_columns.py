"""The leave-last-out split as columns against the per-user split it
replaced: on random logs, leave_last_out_split, recommender.split_rows and
the history users of corpus.TaskSources equal the code that read the
per-user form, kept here verbatim."""

from __future__ import annotations

import itertools
from operator import attrgetter

import numpy as np

from conftest import EventLog, UserSplit, assignment_from_sids, catalog_of, log_of, user_splits
from sidforge.corpus import TaskSources
from sidforge.datamodel import leave_last_out_split
from sidforge.recommender import split_rows
from test_datamodel import reference_leave_last_out_split


def reference_split_rows(split: dict[str, UserSplit], assign, include_validation: bool):
    """recommender.split_rows before the split held columns, verbatim but
    for taking the users' dict, the split's one field then."""
    user_ids = sorted(split)
    users = list(map(split.__getitem__, user_ids))
    row_of = dict(zip(assign.item_ids, range(len(assign))))

    def rows_of(items, count):  # one C-level pass of dict lookups
        return np.fromiter(map(row_of.get, items, itertools.repeat(-1)), np.int64, count)

    lengths = np.fromiter(map(len, map(attrgetter("train"), users)), np.int64, len(users))
    rows = rows_of(itertools.chain.from_iterable(map(attrgetter("train"), users)), int(lengths.sum()))
    if include_validation:  # each validation row goes at its user's end
        validation = rows_of(map(attrgetter("validation"), users), len(users))
        rows = np.insert(rows, lengths.cumsum(), validation)
    kept = rows >= 0
    owner = np.arange(len(users)).repeat(lengths + bool(include_validation))
    ends = np.bincount(owner[kept], minlength=len(users)).cumsum()
    return user_ids, rows[kept], ends, rows_of(map(attrgetter("test"), users), len(users))


def reference_history_users(split: dict[str, UserSplit], catalog, assign, max_history: int) -> list:
    """TaskSources.users before the split held columns, verbatim but for
    taking the users' dict."""
    shown_items = {item_id for item_id in assign.item_ids if item_id in catalog}
    users = []
    for user_id in sorted(split):
        user = split[user_id]
        history = [i for i in user.train[-max_history:] if i in shown_items]
        if history and user.validation in shown_items:
            users.append((user_id, history, user.validation))
    return users


def random_world(gen):
    """A catalog, an assignment and a shuffled log over one item pool. Some
    items have no SID, some no catalog record; users have 1 to 4 events or
    many; timestamps tie often."""
    pool = [f"i{j}" for j in range(int(gen.integers(1, 30)))]
    catalog = catalog_of(*((i, f"Title {i}", "d", "c") for i in pool if gen.random() < 0.8))
    assign = assignment_from_sids({i: tuple(gen.integers(3, size=2).tolist()) for i in pool if gen.random() < 0.8})
    events = [
        (f"u{u}", pool[int(gen.integers(len(pool)))], int(gen.integers(6)))
        for u in range(int(gen.integers(12)))
        for _ in range(int(gen.choice([1, 2, 3, 4, 30])))
    ]
    return catalog, assign, [events[i] for i in gen.permutation(len(events))]


def test_the_columns_equal_the_per_user_split():
    gen = np.random.default_rng(3500)
    for trial in range(80):
        catalog, assign, events = random_world(gen)
        split = leave_last_out_split(log_of(events))
        want = reference_leave_last_out_split(EventLog(events=tuple(events)))
        assert list(user_splits(split).items()) == list(want.items()), trial
        for include_validation in (True, False):
            user_ids, *arrays = split_rows(split, assign, include_validation)
            want_ids, *want_arrays = reference_split_rows(want, assign, include_validation)
            assert list(user_ids) == want_ids, trial
            for got, expected in zip(arrays, want_arrays, strict=True):
                assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), trial
        for max_history in (1, 2, 5, 40, 10**30):  # below and above the long users' 28 train items
            got = TaskSources(split, catalog, assign, max_history).users
            assert got == reference_history_users(want, catalog, assign, max_history), (trial, max_history)
