"""Reference-order property test for the DCE's per-target parking.

:class:`repro.core.dce.TargetFifos` must offer parked requests, and leave the
survivors, in exactly the order of the single rotated deque it replaced.
That deque survives here as :class:`RotatedDeque`, the reference model: a
pass visits every entry once, from the head; an entry whose target is
blocked -- retry pending, or rejected earlier in the same pass -- rotates to
the tail, a submitted one leaves, and the pass stops as soon as the window
budget is used up.  Appends go at the tail.

Both structures run the same generated programs: appends over 1-6 targets
and passes with a retry-pending set, per-attempt accept/reject outcomes and
a window budget (``None`` = unbounded, as for parked writes).  After every
pass the submit sequences and the remaining orders must be identical.

A failing program prints as JSON; pin it as one line of
``tests/differential/target_fifos_corpus.jsonl``, which the corpus test
replays.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, note
from hypothesis import strategies as st

from repro.core.dce import TargetFifos

CORPUS_PATH = Path(__file__).with_name("target_fifos_corpus.jsonl")


class RotatedDeque:
    """The DCE's former deferral: one deque, rotated through on every pass."""

    def __init__(self) -> None:
        self.entries = deque()

    def append(self, key, item) -> None:
        self.entries.append((key, item))

    def drain(self, submit, blocked, budget=None) -> None:
        entries = self.entries
        blocked = set(blocked)
        for _ in range(len(entries)):
            if budget is not None and budget <= 0:
                return  # window full: the pass stops mid-rotation
            key, item = entries[0]
            if key in blocked:
                entries.rotate(-1)
            elif submit(key, item):
                entries.popleft()
                if budget is not None:
                    budget -= 1
            else:
                blocked.add(key)
                entries.rotate(-1)

    def __iter__(self):
        return iter(self.entries)


def run_program(program: dict) -> None:
    """Drive both structures through ``program`` and compare after each pass."""
    reference, fifos = RotatedDeque(), TargetFifos()
    next_item = 0
    for op in program["ops"]:
        if op[0] == "append":
            reference.append(op[1], next_item)
            fifos.append(op[1], next_item)
            next_item += 1
            continue
        _, blocked, outcomes, budget = op
        logs = []
        for structure in (reference, fifos):
            log, answers = [], iter(outcomes)

            def submit(key, item, log=log, answers=answers):
                accepted = next(answers, True)
                log.append((key, item, accepted))
                return accepted

            structure.drain(submit, frozenset(blocked), budget)
            logs.append(log)
        assert logs[0] == logs[1], program
        assert list(reference) == list(fifos), program
        assert fifos.count == len(reference.entries), program


@st.composite
def programs(draw) -> dict:
    targets = st.integers(0, draw(st.integers(1, 6)) - 1)
    append = st.tuples(st.just("append"), targets)
    drain = st.tuples(
        st.just("pass"),
        st.lists(targets, max_size=3, unique=True),
        st.lists(st.booleans(), max_size=12),
        st.one_of(st.none(), st.integers(0, 5)),
    )
    ops = draw(st.lists(st.one_of(append, append, drain), max_size=60))
    return {"ops": [list(op) for op in ops]}


@given(programs())
def test_target_fifos_match_the_rotated_deque(program: dict) -> None:
    note(json.dumps(program))
    run_program(program)


def _corpus():
    with open(CORPUS_PATH) as handle:
        return [
            json.loads(line)
            for line in map(str.strip, handle)
            if line and not line.startswith("#")
        ]


@pytest.mark.parametrize("program", _corpus(), ids=lambda program: f"{len(program['ops'])}ops")
def test_target_fifos_corpus_cases(program: dict) -> None:
    run_program(program)
