"""Hypothesis property: concurrent stream/resume interleavings of one
anytime session always converge to the cold engine answer, with zero
race-sanitizer violations.

Two threads fight over one session token the way a flaky client and
its retry do: redeem, pump one chunk, release, repeat.  Whatever
interleaving Hypothesis' schedules provoke, the session's busy flag
must keep the runner single-pumped, the chunk sequence must stay
strictly increasing, and the final chunk must be bit-identical to the
cold library call.  CI runs this file again under ``REPRO_SANITIZE=1``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sync
from repro.errors import ResumeTokenError
from repro.mm import ArraySource
from repro.serve.session import AnytimeRunner, SessionRegistry
from repro.topn import SUM, combined_topn, nra_topn, threshold_topn

COLD = {"ta": threshold_topn, "nra": nra_topn, "ca": combined_topn}

N_OBJECTS = 48
N_SOURCES = 3
THREADS = 2


def make_sources(seed):
    rng = np.random.default_rng(seed)
    return [ArraySource(rng.random(N_OBJECTS), name=f"s{i}")
            for i in range(N_SOURCES)]


@pytest.fixture(autouse=True, scope="module")
def sanitized():
    sync.install_sanitizer()
    sync.reset_violations()
    yield
    sync.uninstall_sanitizer()


@settings(max_examples=25, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(COLD)),
    n=st.integers(min_value=1, max_value=8),
    chunk_depth=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_concurrent_resume_interleavings_converge_to_cold(algorithm, n,
                                                          chunk_depth, seed):
    cold = COLD[algorithm](make_sources(seed), n, SUM)
    want = [(item.obj_id, item.score) for item in cold.items]

    registry = SessionRegistry(max_sessions=4)
    runner = AnytimeRunner(make_sources(seed), n, algorithm,
                           chunk_depth=chunk_depth)
    session = registry.issue(runner, "tenant", 0)
    session.release()  # issuing connection "disconnected" immediately
    token = session.token

    pumping = [0]  # mutual-exclusion witness, guarded by the busy flag
    sequences = {}
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(tid):
        seqs = sequences.setdefault(tid, [])
        try:
            barrier.wait()
            while True:
                try:
                    mine = registry.redeem(token, 0)
                except ResumeTokenError as exc:
                    if exc.code == "resume_busy":
                        continue  # the other thread holds the stream
                    return  # resume_unknown: stream completed, dropped
                try:
                    pumping[0] += 1
                    assert pumping[0] == 1, "two concurrent pumpers"
                    chunk = mine.runner.step()
                    mine.note_delivered()
                    seqs.append(chunk.seq)
                    pumping[0] -= 1
                    if chunk.final:
                        registry.drop(token)
                        return
                finally:
                    mine.release()
        except Exception as exc:  # noqa: BLE001 - surface to the test
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert errors == []
    assert runner.finished
    assert runner._last.items == want

    # chunks were pumped exactly once each, gap-free, across both
    # threads, and each thread saw its share in increasing order
    merged = sorted(seq for seqs in sequences.values() for seq in seqs)
    assert merged == list(range(len(merged)))
    for seqs in sequences.values():
        assert seqs == sorted(seqs)


def test_no_sanitizer_violations_recorded():
    """Meta-check: under REPRO_SANITIZE=1 the interleavings above must
    have recorded zero violations against the serve declarations."""
    violations = sync.violations()
    assert violations == (), "\n".join(v.render() for v in violations)
