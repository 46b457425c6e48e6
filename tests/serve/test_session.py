"""Anytime runners, resume tokens, and the session registry."""

import numpy as np
import pytest

from repro.errors import ResumeTokenError, TopNError
from repro.mm import ArraySource
from repro.serve.session import (
    ALGORITHMS,
    AnytimeRunner,
    ServeSession,
    SessionRegistry,
    make_token,
    parse_token,
)
from repro.topn import SUM, combined_topn, nra_topn, threshold_topn

COLD = {"ta": threshold_topn, "nra": nra_topn, "ca": combined_topn}

N_OBJECTS = 96
N_SOURCES = 3


def make_sources(seed=5, n_objects=N_OBJECTS, n_sources=N_SOURCES):
    rng = np.random.default_rng(seed)
    return [ArraySource(rng.random(n_objects), name=f"s{i}")
            for i in range(n_sources)]


def drain(runner, limit=64):
    chunks = []
    while not runner.finished:
        chunks.append(runner.step())
        assert len(chunks) <= limit, "runner never reached a final chunk"
    return chunks


class TestAnytimeRunner:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_final_chunk_matches_cold_engine(self, algorithm):
        runner = AnytimeRunner(make_sources(), n=10, algorithm=algorithm,
                               chunk_depth=2)
        final = drain(runner)[-1]
        cold = COLD[algorithm](make_sources(), 10, SUM)
        assert final.final and final.certified
        assert final.items == [(item.obj_id, item.score)
                               for item in cold.items]

    @pytest.mark.parametrize("algorithm", ("ta", "nra", "ca"))
    def test_streams_partial_chunks_before_final(self, algorithm):
        chunks = drain(AnytimeRunner(make_sources(), n=10,
                                     algorithm=algorithm, chunk_depth=1))
        assert len(chunks) >= 2
        assert all(not chunk.final for chunk in chunks[:-1])
        assert [chunk.seq for chunk in chunks] == list(range(len(chunks)))

    def test_fa_is_not_served(self):
        with pytest.raises(TopNError, match="unknown algorithm 'fa'"):
            AnytimeRunner(make_sources(), n=5, algorithm="fa")

    def test_partial_bounds_dominate_the_final_scores(self):
        chunks = drain(AnytimeRunner(make_sources(), n=10, algorithm="ta",
                                     chunk_depth=1, epoch=3))
        final_scores = [score for _, score in chunks[-1].items]
        for chunk in chunks[:-1]:
            assert chunk.bound is not None
            assert chunk.bound.epoch == 3
            # -key[0] is the certified ceiling on any unseen object
            assert -chunk.bound.key[0] >= min(final_scores) - 1e-9

    def test_step_after_final_resends_the_same_chunk(self):
        runner = AnytimeRunner(make_sources(), n=5, algorithm="ta",
                               chunk_depth=64)
        final = drain(runner)[-1]
        assert runner.step() is final

    def test_frame_serialization_is_json_native(self):
        runner = AnytimeRunner(make_sources(), n=5, algorithm="nra",
                               chunk_depth=64)
        frame = drain(runner)[-1].to_frame("sv1.x.0")
        assert frame["type"] == "chunk"
        assert frame["resume_token"] == "sv1.x.0"
        for obj_id, score in frame["items"]:
            assert type(obj_id) is int and type(score) is float
        assert all(isinstance(v, (bool, int, float, str, type(None)))
                   for v in frame["stats"].values())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(TopNError, match="unknown algorithm"):
            AnytimeRunner(make_sources(), n=5, algorithm="fuzzy")

    def test_bad_chunk_depth_rejected(self):
        with pytest.raises(TopNError, match="chunk_depth"):
            AnytimeRunner(make_sources(), n=5, algorithm="ta", chunk_depth=0)


class TestTokens:
    def test_roundtrip_embeds_the_epoch(self):
        token = make_token(epoch=7)
        session_id, epoch = parse_token(token)
        assert epoch == 7
        assert token == f"sv1.{session_id}.7"

    def test_tokens_are_unique(self):
        assert len({make_token(0) for _ in range(100)}) == 100

    @pytest.mark.parametrize("bad", ("", "sv1.x", "sv2.x.0", "sv1.x.y",
                                     "sv1.x.0.extra"))
    def test_malformed_tokens_rejected(self, bad):
        with pytest.raises(ResumeTokenError, match="malformed"):
            parse_token(bad)


def issue_released(registry, epoch=0):
    runner = AnytimeRunner(make_sources(), n=5, algorithm="ta")
    session = registry.issue(runner, "tenant", epoch)
    session.release()  # as after a disconnect
    return session


class TestSessionRegistry:
    def test_issue_then_redeem_roundtrip(self):
        registry = SessionRegistry()
        session = issue_released(registry)
        assert registry.redeem(session.token, 0) is session
        assert session.busy  # redeem re-attached the stream

    def test_busy_session_refuses_a_second_reader(self):
        registry = SessionRegistry()
        session = issue_released(registry)
        registry.redeem(session.token, 0)
        with pytest.raises(ResumeTokenError) as exc_info:
            registry.redeem(session.token, 0)
        assert exc_info.value.code == "resume_busy"

    def test_unknown_token_redeems_as_unknown(self):
        registry = SessionRegistry()
        with pytest.raises(ResumeTokenError) as exc_info:
            registry.redeem(make_token(0), 0)
        assert exc_info.value.code == "resume_unknown"

    def test_epoch_mismatch_is_moa1002_even_for_evicted_tokens(self):
        registry = SessionRegistry()
        with pytest.raises(ResumeTokenError) as exc_info:
            registry.redeem(make_token(epoch=1), current_epoch=2)
        error = exc_info.value
        assert error.code == "resume_epoch_mismatch"
        assert error.diagnostic is not None
        assert error.diagnostic.code == "MOA1002"
        assert registry.snapshot()["epoch_mismatches"] == 1

    def test_lru_eviction_drops_the_oldest_idle_session(self):
        registry = SessionRegistry(max_sessions=2)
        idle = issue_released(registry)
        issue_released(registry)
        issue_released(registry)  # overflows: the oldest idle one goes
        assert registry.size() == 2
        with pytest.raises(ResumeTokenError) as exc_info:
            registry.redeem(idle.token, 0)
        assert exc_info.value.code == "resume_unknown"

    def test_lru_eviction_never_drops_a_live_stream(self):
        registry = SessionRegistry(max_sessions=1)
        live = registry.issue(  # stays attached: must never be evicted
            AnytimeRunner(make_sources(), n=5, algorithm="ta"), "t", 0)
        issue_released(registry)  # overflow, but the LRU head is busy
        # the busy session is still registered (resume_busy, not unknown)
        with pytest.raises(ResumeTokenError) as busy_info:
            registry.redeem(live.token, 0)
        assert busy_info.value.code == "resume_busy"

    def test_lru_eviction_skips_a_busy_head_to_the_next_idle(self):
        # regression: eviction used to stop at a busy LRU head, letting
        # one long-lived stream pin every idle session behind it
        registry = SessionRegistry(max_sessions=2)
        live = registry.issue(  # busy: becomes the un-evictable LRU head
            AnytimeRunner(make_sources(), n=5, algorithm="ta"), "t", 0)
        idle = issue_released(registry)
        issue_released(registry)  # overflow: skip `live`, evict `idle`
        assert registry.size() == 2
        with pytest.raises(ResumeTokenError) as busy_info:
            registry.redeem(live.token, 0)
        assert busy_info.value.code == "resume_busy"
        with pytest.raises(ResumeTokenError) as gone_info:
            registry.redeem(idle.token, 0)
        assert gone_info.value.code == "resume_unknown"

    def test_token_dropped_during_redeem_redeems_as_unknown(self):
        # regression: a reader that looked the session up just before
        # its holder finished the stream and dropped the token used to
        # acquire the dropped session and re-send its final chunk
        registry = SessionRegistry()
        session = issue_released(registry)
        acquire = session.acquire

        def acquire_after_the_holder_drops():
            registry.drop(session.token)
            return acquire()

        session.acquire = acquire_after_the_holder_drops
        with pytest.raises(ResumeTokenError) as exc_info:
            registry.redeem(session.token, 0)
        assert exc_info.value.code == "resume_unknown"
        assert not session.busy

    def test_drop_forgets_the_token(self):
        registry = SessionRegistry()
        session = issue_released(registry)
        registry.drop(session.token)
        with pytest.raises(ResumeTokenError):
            registry.redeem(session.token, 0)
        assert registry.size() == 0

    def test_snapshot_counters(self):
        registry = SessionRegistry()
        session = issue_released(registry)
        registry.redeem(session.token, 0)
        snap = registry.snapshot()
        assert snap == {"active": 1, "issued": 1, "resumed": 1,
                        "epoch_mismatches": 0}


class TestServeSession:
    def test_acquire_release_cycle(self):
        session = ServeSession("sv1.x.0", None, "t", 0)
        assert not session.busy
        assert session.acquire()
        assert not session.acquire()
        session.release()
        assert session.acquire()

    def test_delivery_accounting(self):
        session = ServeSession("sv1.x.0", None, "t", 0)
        session.note_delivered()
        session.note_delivered()
        assert session.delivered == 2
