import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embsearch import data, evaluation, resolver, similarity
from embsearch.errors import (
    EmptyList,
    InvalidConfig,
    InvalidRanking,
    NotNormalized,
    PointerOutOfBounds,
)
from embsearch.resolver import (
    ResolutionPolicy,
    _query_cosines,
    detect_conflicts,
    resolve,
    resolution_to_lists,
    write_audit,
    write_resolution,
)
from assignment_oracle import TooLarge, assignment_oracle
from conftest import examples
from deferred_acceptance import deferred_acceptance
from rankings import ranking, resolved, rows_of


def rl(qid, *pairs):
    return (qid, [(g, float(s)) for g, s in pairs])


def unit_matrix(rows):
    """The EmbeddingMatrix of rows scaled to unit norm, as the gate takes it."""
    return data.l2_normalize(np.asarray(rows, dtype=np.float32))


def reference_detect_conflicts(lists, policy, positions, query_embeddings=None, frozen=None):
    """The per-query loop the array detector replaced, kept as its reference.

    lists are (query_id, entries) rows; groups are (answer_id, members)
    with members (query_id, score, rank starting at 1)."""
    frozen = frozen or set()
    by_query = dict(lists)
    occurrences = {}
    for qid in sorted(positions):
        if qid in frozen:
            continue
        pos = positions[qid]
        window = by_query[qid][pos : pos + policy.depth]
        seen = set()
        for offset, (gid, score) in enumerate(window):
            if gid in seen:
                continue
            seen.add(gid)
            occurrences.setdefault(gid, []).append((qid, score, pos + offset + 1))

    groups = []
    for answer_id in sorted(occurrences):
        members = occurrences[answer_id]
        if len(members) < 2:
            continue
        if policy.similarity_gate is not None:
            if query_embeddings is None:
                raise InvalidConfig("similarity_gate requires query embeddings")
            ids = [qid for qid, _, _ in members]
            cos = _query_cosines(query_embeddings, ids)
            iu = np.triu_indices(len(ids), k=1)
            if not np.any(cos[iu] > policy.similarity_gate):
                continue
        groups.append((answer_id, members))
    return groups


def reference_resolve(lists, policy=ResolutionPolicy(), query_embeddings=None):
    """The per-query round loop the array resolver replaced, kept as its
    reference: (assignments, audit, unresolved) as rankings.resolved reads
    them back, then rounds and live_conflicts. A round in which no loser
    sits on its contested answer ends the run with its groups live."""
    lists = sorted(lists, key=lambda row: row[0])
    depth_n = max(len(entries) for _, entries in lists)
    max_rounds = policy.max_rounds if policy.max_rounds is not None else depth_n
    by_query = dict(lists)
    positions = {qid: 0 for qid, _ in lists}
    frozen = set()
    assignments, audit, unresolved = {}, [], set()
    rounds = live_conflicts = 0
    for round_index in range(1, max_rounds + 2):
        groups = reference_detect_conflicts(lists, policy, positions, query_embeddings, frozen)
        if not groups:
            break
        if round_index > max_rounds:
            live_conflicts = len(groups)
            break
        winners = {a: max(members, key=lambda m: (m[1], -m[0]))[0] for a, members in groups}
        if not any(rank - 1 == positions[qid] for a, members in groups
                   for qid, _, rank in members if qid != winners[a]):
            live_conflicts = len(groups)
            break
        rounds = round_index
        for answer_id, members in groups:
            winner_qid, winner_score, _ = max(members, key=lambda m: (m[1], -m[0]))
            for qid, score, rank in members:
                if qid == winner_qid:
                    continue
                audit.append((round_index, answer_id, winner_qid, qid, winner_score - score))
                if rank - 1 != positions[qid]:
                    continue
                if positions[qid] + 1 >= len(by_query[qid]):
                    unresolved.add(qid)
                    frozen.add(qid)
                else:
                    positions[qid] += 1
    for qid, entries in lists:
        gid, score = entries[positions[qid]]
        assignments[qid] = (gid, score, positions[qid] + 1)
    return assignments, audit, unresolved, rounds, live_conflicts


def detect_groups(lists, policy, positions, query_embeddings=None, frozen=frozenset()):
    """detect_conflicts on a Ranking with pointers given as a positions dict
    and a frozen set, its member arrays turned into the reference's groups."""
    row_of = {qid: row for row, qid in enumerate(lists.query_ids.tolist())}
    pos = np.zeros(len(lists), dtype=np.int64)
    active = np.zeros(len(lists), dtype=bool)
    for qid, pointer in positions.items():
        if qid not in frozen:
            pos[row_of[qid]], active[row_of[qid]] = pointer, True
    answers, rows, cols, starts = detect_conflicts(lists, policy, pos, active, query_embeddings)
    qids = lists.query_ids[rows].tolist()
    scores = lists.scores[rows, cols].tolist()
    ranks = (cols + 1).tolist()
    return [
        (int(answers[lo]), list(zip(qids[lo:hi], scores[lo:hi], ranks[lo:hi])))
        for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist())
    ]


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_resolution(lists, got, want):
    """got is resolve's Resolution of the Ranking lists, want reference_resolve's result."""
    assert got.ranks.shape == (len(lists),) and got.audit.dtype == resolver.AUDIT_DTYPE
    assignments, audit, unresolved = resolved(lists, got)
    want_assignments, want_audit, want_unresolved, rounds, live_conflicts = want
    assert assignments.keys() == want_assignments.keys()
    for qid, (gid, score, rank) in want_assignments.items():
        g_gid, g_score, g_rank = assignments[qid]
        assert (g_gid, g_rank) == (gid, rank) and same_float(g_score, score)
    assert [e[:4] for e in audit] == [e[:4] for e in want_audit]
    assert all(same_float(a[4], b[4]) for a, b in zip(audit, want_audit))
    assert unresolved == want_unresolved
    assert got.rounds == rounds
    assert got.live_conflicts == live_conflicts


class TestDetectConflicts:
    def test_shared_rank1_answer(self):
        lists = ranking([rl(0, (5, 0.9)), rl(1, (5, 0.8)), rl(2, (3, 0.7))])
        groups = detect_groups(lists, ResolutionPolicy(), {0: 0, 1: 0, 2: 0})
        assert len(groups) == 1
        answer_id, members = groups[0]
        assert answer_id == 5
        assert [m[0] for m in members] == [0, 1]

    def test_all_distinct(self):
        lists = ranking([rl(0, (1, 0.9)), rl(1, (2, 0.8))])
        assert detect_groups(lists, ResolutionPolicy(), {0: 0, 1: 0}) == []

    def test_group_of_three(self):
        lists = ranking([rl(0, (4, 0.9)), rl(1, (4, 0.8)), rl(2, (4, 0.7))])
        groups = detect_groups(lists, ResolutionPolicy(), {0: 0, 1: 0, 2: 0})
        assert len(groups) == 1
        assert len(groups[0][1]) == 3

    def test_similarity_gate_filters_groups(self):
        lists = ranking([rl(0, (4, 0.9)), rl(1, (4, 0.8))])
        # orthogonal query texts: gate excludes the group
        emb = unit_matrix([[1.0, 0.0], [0.0, 1.0]])
        policy = ResolutionPolicy(similarity_gate=0.5)
        assert detect_groups(lists, policy, {0: 0, 1: 0}, query_embeddings=emb) == []
        # near-parallel texts: group survives
        emb2 = unit_matrix([[1.0, 0.0], [0.99, 0.1]])
        groups = detect_groups(lists, policy, {0: 0, 1: 0}, query_embeddings=emb2)
        assert len(groups) == 1

    def test_gate_without_embeddings(self):
        lists = ranking([rl(0, (4, 0.9)), rl(1, (4, 0.8))])
        with pytest.raises(InvalidConfig):
            detect_groups(lists, ResolutionPolicy(similarity_gate=0.5), {0: 0, 1: 0})

    def test_gate_without_embeddings_on_conflict_free_lists(self):
        # the check precedes grouping, so it does not depend on the data
        lists = ranking([rl(0, (4, 0.9)), rl(1, (5, 0.8))])
        policy = ResolutionPolicy(similarity_gate=0.5)
        with pytest.raises(InvalidConfig, match="requires query embeddings"):
            resolve(lists, policy)
        with pytest.raises(InvalidConfig, match="requires query embeddings"):
            detect_groups(lists, policy, {0: 0, 1: 0})

    def test_gate_rejects_zero_query_row(self):
        # a zero row cannot form an EmbeddingMatrix, and the gate takes no
        # other embeddings: a raw array is refused
        lists = ranking([rl(3, (4, 0.9)), rl(5, (4, 0.8))])
        emb = np.zeros((6, 2), dtype=np.float32)
        emb[3] = [1.0, 0.0]
        with pytest.raises(NotNormalized, match="^row 0 has norm 0, not 1 within 1e-05$"):
            data.EmbeddingMatrix(emb)
        refused = "^query embeddings must be an EmbeddingMatrix$"
        for policy in (ResolutionPolicy(similarity_gate=0.5), ResolutionPolicy()):
            with pytest.raises(NotNormalized, match=refused):
                resolve(lists, policy, emb)
            with pytest.raises(NotNormalized, match=refused):
                detect_conflicts(lists, policy, np.zeros(2, np.int64), np.ones(2, bool), emb)


class TestPolicyRules:
    @pytest.mark.parametrize("field, message", [
        ("depth", "depth must be >= 1"), ("max_rounds", "max_rounds must be >= 1"),
    ])
    def test_construction_refuses_zero(self, field, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            ResolutionPolicy(**{field: 0})

    def test_resolve_refuses_depth_past_k(self):
        lists = ranking([rl(1, (100, 0.9), (102, 0.6)), rl(2, (100, 0.8), (101, 0.7))])
        with pytest.raises(InvalidConfig, match=r"^depth must be in \[1, 2\]$"):
            resolve(lists, ResolutionPolicy(depth=3))
        assert resolve(lists, ResolutionPolicy(depth=2)).converged


class TestResolve:
    def test_two_query_hand_trace(self):
        lists = ranking([
            rl(1, (100, 0.9), (102, 0.6)),
            rl(2, (100, 0.8), (101, 0.7)),
        ])
        assignments, audit, unresolved = resolved(lists, resolve(lists))
        assert assignments[1] == (100, 0.9, 1)
        assert assignments[2] == (101, 0.7, 2)
        assert len(audit) == 1
        _, answer_id, winner, loser, delta_s = audit[0]
        assert winner == 1 and loser == 2 and answer_id == 100
        assert delta_s == pytest.approx(0.1)
        assert not unresolved

    def test_overflowing_score_difference_is_inf(self, tmp_path):
        """1.7e308 - -1.7e308 overflows: delta_s is inf, as Python floats give,
        with no numpy warning (pytest turns warnings into errors)."""
        path = tmp_path / "ranked.tsv"
        path.write_text("0\t1\t5\t1.7e308\n0\t2\t6\t0.1\n1\t1\t5\t-1.7e308\n1\t2\t7\t0.1\n")
        audit = resolve(similarity.read_ranked_lists(path)).audit
        assert audit[["winner", "loser"]].tolist() == [(0, 1)]
        assert audit["delta_s"].tolist() == [1.7e308 - -1.7e308] == [math.inf]

    def test_cascading_three_query_trace(self):
        lists = ranking([
            rl(1, (100, 0.9), (103, 0.5), (104, 0.4)),
            rl(2, (100, 0.8), (101, 0.7), (105, 0.3)),
            rl(3, (101, 0.75), (102, 0.5), (106, 0.2)),
        ])
        assignments, audit, _ = resolved(lists, resolve(lists))
        # round 1: q2 loses answer 100 to q1; round 2: q2 loses 101 to q3
        assert assignments[1] == (100, 0.9, 1)
        assert assignments[2] == (105, 0.3, 3)
        assert assignments[3] == (101, 0.75, 1)
        assert [e[:4] for e in audit] == [
            (1, 100, 1, 2),
            (2, 101, 3, 2),
        ]
        assert audit[0][4] == pytest.approx(0.1)
        assert audit[1][4] == pytest.approx(0.05)

    def test_no_collisions_is_identity(self):
        lists = ranking([rl(0, (1, 0.9), (2, 0.5)), rl(1, (3, 0.8), (4, 0.4))])
        res = resolve(lists)
        assignments, audit, _ = resolved(lists, res)
        assert assignments == {0: (1, 0.9, 1), 1: (3, 0.8, 1)}
        assert audit == []
        assert res.rounds == 0

    def test_score_tie_lower_query_id_keeps(self):
        lists = ranking([rl(5, (9, 0.8), (1, 0.5)), rl(2, (9, 0.8), (3, 0.5))])
        assignments, audit, _ = resolved(lists, resolve(lists))
        assert assignments[2][0] == 9
        assert assignments[5][0] == 1
        assert audit[0][4] == 0.0

    def test_exhaustion_keeps_last_entry_and_flags(self):
        lists = ranking([rl(0, (7, 0.9)), rl(1, (7, 0.8))])
        assignments, _, unresolved = resolved(lists, resolve(lists))
        assert assignments[1] == (7, 0.8, 1)
        assert unresolved == {1}

    def test_converged_run_can_leave_exhausted_answers_shared(self):
        """converged counts conflicts among queries still in play only: query 1
        runs out of candidates on 8, the answer query 2 holds, and the run
        still converges."""
        lists = ranking([rl(0, (7, 0.9), (8, 0.5)), rl(1, (7, 0.8), (8, 0.7)),
                         rl(2, (8, 0.95), (7, 0.1))])
        result = resolve(lists)
        assignments, _, unresolved = resolved(lists, result)
        assert result.converged and result.live_conflicts == 0 and result.rounds == 2
        assert unresolved == {1}
        assert assignments[1][0] == assignments[2][0] == 8

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyList):
            resolve(ranking([]))
        with pytest.raises(EmptyList):
            resolve(ranking([(0, [])]))

    def test_input_order_invariance(self):
        lists = [
            rl(3, (1, 0.6), (2, 0.5)),
            rl(1, (1, 0.9), (4, 0.2)),
            rl(2, (1, 0.7), (5, 0.4)),
        ]
        a = resolved(ranking(lists), resolve(ranking(lists)))
        b = resolved(ranking(reversed(lists)), resolve(ranking(reversed(lists))))
        assert a[0] == b[0]
        assert [e[:4] for e in a[1]] == [e[:4] for e in b[1]]

    @settings(max_examples=examples(40), deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
    def test_never_invents_answers(self, seed, n):
        sims = np.random.default_rng(seed).random((n, n)).astype(np.float32)
        lists = similarity.top_k(sims, n)
        assignments, _, _ = resolved(lists, resolve(lists))
        originals = dict(rows_of(lists))
        for qid, (gid, score, source_rank) in assignments.items():
            assert gid in {g for g, _ in originals[qid]}
            assert originals[qid][source_rank - 1] == (gid, score)

    @settings(max_examples=examples(40), deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    def test_full_depth_conflict_set_answers_distinct(self, seed, n):
        sims = np.random.default_rng(seed).random((n, n)).astype(np.float32)
        lists = similarity.top_k(sims, n)
        res = resolve(lists)
        assignments, audit, unresolved = resolved(lists, res)
        if unresolved or res.rounds >= n:
            return
        conflicted = {q for _, _, winner, loser, _ in audit for q in (winner, loser)}
        answers = [assignments[q][0] for q in conflicted]
        assert len(answers) == len(set(answers))

    def test_untouched_queries_keep_rank1(self):
        sims = np.random.default_rng(3).random((8, 8)).astype(np.float32)
        lists = similarity.top_k(sims, 8)
        assignments, audit, _ = resolved(lists, resolve(lists))
        touched = {loser for _, _, _, loser, _ in audit}
        for qid, entries in rows_of(lists):
            if qid not in touched:
                assert assignments[qid][0] == entries[0][0]


class TestAgainstReference:
    """The array resolver against the per-query loops it replaced."""

    @settings(max_examples=examples(150), deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 12),
        cap=st.sampled_from([None, 1, 2, 3]),
        gate=st.sampled_from([None, -0.5, 0.0, 0.5, 0.9]),
        data_=st.data(),
    )
    def test_top_k_lists(self, seed, n, cap, gate, data_):
        rng = np.random.default_rng(seed)
        n_gallery = data_.draw(st.integers(1, 12))
        k = data_.draw(st.integers(1, n_gallery))
        depth = data_.draw(st.integers(1, k))
        # scores on a 0.1 grid tie often, within and across queries
        sims = np.round(rng.random((n, n_gallery)), 1).astype(np.float32)
        lists = similarity.top_k(sims, k)
        embeddings = unit_matrix(rng.standard_normal((n, 3)))
        policy = ResolutionPolicy(depth=depth, max_rounds=cap, similarity_gate=gate)
        res = resolve(lists, policy, embeddings)
        assert_same_resolution(lists, res, reference_resolve(rows_of(lists), policy, embeddings))
        # at depth 1 every loser sits on its contested answer
        assert depth > 1 or not res.stalled

    @settings(max_examples=examples(150), deadline=None)
    @given(
        qids=st.lists(st.integers(-5, 40), min_size=2, max_size=10, unique=True),
        k=st.integers(1, 6),
        cap=st.sampled_from([None, 1, 2, 3]),
        data_=st.data(),
    )
    def test_hand_built_lists(self, qids, k, cap, data_):
        """Unsorted query ids, repeated ids within a list, signed zeros,
        infinities and NaN scores."""
        score = st.sampled_from([0.5, 0.25, 0.0, -0.0, 1.0, math.inf, -math.inf, math.nan])
        lists = [
            (q, [(data_.draw(st.integers(0, 4)), data_.draw(score)) for _ in range(k)])
            for q in qids
        ]
        policy = ResolutionPolicy(depth=data_.draw(st.integers(1, k)), max_rounds=cap)
        built = ranking(lists)
        assert_same_resolution(built, resolve(built, policy), reference_resolve(lists, policy))

    @settings(max_examples=examples(100), deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10), data_=st.data())
    def test_detect_conflicts(self, seed, n, data_):
        rng = np.random.default_rng(seed)
        k = data_.draw(st.integers(1, 6))
        sims = np.round(rng.random((n, 6)), 1).astype(np.float32)
        lists = similarity.top_k(sims, k)
        positions = {q: int(rng.integers(k)) for q in range(n) if rng.random() < 0.8}
        frozen = {q for q in range(n) if rng.random() < 0.2}
        gate = data_.draw(st.sampled_from([None, 0.0, 0.5]))
        embeddings = unit_matrix(rng.standard_normal((n, 3)))
        policy = ResolutionPolicy(depth=data_.draw(st.integers(1, k)), similarity_gate=gate)
        assert detect_groups(lists, policy, positions, embeddings, frozen) == (
            reference_detect_conflicts(rows_of(lists), policy, positions, embeddings, frozen)
        )

    def test_nan_leader_keeps_answer(self):
        # a running maximum never replaces a NaN leader, nor picks a NaN later
        lists = [rl(0, (5, math.nan), (6, 0.1)), rl(1, (5, 0.9), (7, 0.2)),
                 rl(2, (5, 0.3), (8, math.nan))]
        built = ranking(lists)
        res = resolve(built)
        assert_same_resolution(built, res, reference_resolve(lists))
        assert resolved(built, res)[0][0][0] == 5

    def test_pointer_outside_list(self):
        lists = ranking([rl(0, (5, 0.9)), rl(1, (5, 0.8))])
        policy = ResolutionPolicy()
        for pos in ([0, 1], [-1, 0]):
            with pytest.raises(PointerOutOfBounds):
                detect_conflicts(lists, policy, np.array(pos), np.array([True, True]))
        # an inactive row's pointer is not read
        detect_conflicts(lists, policy, np.array([0, 1]), np.array([True, False]))
        # one pointer and one flag per row
        with pytest.raises(PointerOutOfBounds):
            detect_conflicts(lists, policy, np.array([0]), np.array([True, True]))
        with pytest.raises(PointerOutOfBounds):
            detect_conflicts(lists, policy, np.array([0, 0]), np.array([True, True, True]))
        # pointers index the lists, so they are integers
        with pytest.raises(PointerOutOfBounds, match="^pointers must be integers, got float64$"):
            detect_conflicts(lists, policy, np.array([0.0, 0.0]), np.array([True, True]))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InvalidRanking, match="do not hold one equal-length list per query"):
            resolve(similarity.Ranking(np.arange(2), np.array([[5, 6], [5, 7]]),
                                       np.array([[0.9], [0.8]])))


class TestRoundCap:
    def test_seed7_depth1_stops_at_cap_with_live_conflicts(self, seed7_dataset):
        """Pins the exit at the default round cap (the list depth, 10): one
        query ends unresolved and two conflict groups are still live."""
        _, manifest = seed7_dataset
        q = data.l2_normalize(data.load_embeddings(manifest, "query"))
        g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
        lists = similarity.top_k(similarity.similarity_matrix(q, g), 10)
        policy = ResolutionPolicy(depth=1)
        res = resolve(lists, policy)
        assignments, _, unresolved = resolved(lists, res)
        assert res.rounds == 10
        assert len(unresolved) == 1
        pointers = {
            qid: source_rank - 1
            for qid, (_, _, source_rank) in assignments.items()
            if qid not in unresolved
        }
        assert len(detect_groups(lists, policy, pointers)) == 2
        assert res.live_conflicts == 2
        assert not res.converged and not res.stalled

    def test_converged_run_reports_no_live_conflicts(self, seed7_dataset):
        _, manifest = seed7_dataset
        q = data.l2_normalize(data.load_embeddings(manifest, "query"))
        g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
        lists = similarity.top_k(similarity.similarity_matrix(q, g), 10)
        res = resolve(lists, ResolutionPolicy(depth=1, max_rounds=100))
        assert res.rounds < 100
        assert res.live_conflicts == 0
        assert res.converged

    def test_cap_reached_exactly_at_convergence(self):
        # one round settles the conflict; a cap of 1 must not read as stopped
        lists = ranking([rl(0, (5, 0.9), (6, 0.1)), rl(1, (5, 0.8), (7, 0.2))])
        res = resolve(lists, ResolutionPolicy(max_rounds=1))
        assert res.rounds == 1
        assert res.converged and res.live_conflicts == 0

    @pytest.mark.parametrize("max_rounds", [None, 100])
    def test_one_detection_per_round_and_one_past_it(self, seed7_dataset, monkeypatch, max_rounds):
        """resolve runs the public detector, found through the module, once
        per round plus once more: at the default cap the extra call finds
        the live groups, with a cap of 100 it finds none."""
        _, manifest = seed7_dataset
        q = data.l2_normalize(data.load_embeddings(manifest, "query"))
        g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
        lists = similarity.top_k(similarity.similarity_matrix(q, g), 10)
        calls = []
        detect = resolver.detect_conflicts

        def counting(*args, **kwargs):
            calls.append(detect(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(resolver, "detect_conflicts", counting)
        res = resolve(lists, ResolutionPolicy(depth=1, max_rounds=max_rounds))
        assert res.converged == (max_rounds is not None)
        assert len(calls) == res.rounds + 1
        assert len(calls[-1][3]) - 1 == res.live_conflicts


class TestStall:
    """With depth > 1 every loser of a round can sit off its contested answer:
    the round would move nobody, so the run ends before it, whatever the cap."""

    def test_round_that_moves_nobody_ends_the_run(self):
        # answer 7 is second in both windows; query 1 loses it but sits on 6
        lists = ranking([rl(0, (5, 0.9), (7, 0.8)), rl(1, (6, 0.9), (7, 0.5))])
        res = resolve(lists, ResolutionPolicy(depth=2, max_rounds=1000))
        assert (res.rounds, len(res.audit), res.live_conflicts, res.stalled) == (0, 0, 1, True)
        assert res.ranks.tolist() == [0, 0] and not res.converged


def tied_rankings(seed, n, data_):
    """Top-k lists on a 0.1 score grid, so scores tie within and across
    queries, under ascending query ids that are not row numbers."""
    rng = np.random.default_rng(seed)
    n_gallery = data_.draw(st.integers(1, 14))
    sims = np.round(rng.random((n, n_gallery)), 1).astype(np.float32)
    lists = similarity.top_k(sims, data_.draw(st.integers(1, n_gallery)))
    qids = np.sort(rng.choice(4 * n, n, replace=False))
    return similarity.Ranking(qids, lists.ids, lists.scores)


class TestDeferredAcceptance:
    """At depth 1, resolve is query-proposing deferred acceptance over the
    ranked lists: a gallery item prefers the higher score, then the lower
    query id. With a cap of n * k rounds it always converges, since every
    round with a conflict advances or retires a query."""

    @settings(max_examples=examples(300), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 29), data_=st.data())
    def test_equals_the_sequential_reference(self, seed, n, data_):
        lists = tied_rankings(seed, n, data_)
        res = resolve(lists, ResolutionPolicy(max_rounds=n * lists.k))
        assert res.converged
        pointers, unresolved = deferred_acceptance(lists)
        assert res.ranks.tolist() == pointers
        assert res.unresolved.tolist() == unresolved

    @settings(max_examples=examples(300), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 29), data_=st.data())
    def test_no_blocking_pair(self, seed, n, data_):
        """No query prefers an entry that is free or held by a query with a
        lower (score, -query id) claim on it; an unresolved query prefers
        every entry of its list."""
        lists = tied_rankings(seed, n, data_)
        res = resolve(lists, ResolutionPolicy(max_rounds=n * lists.k))
        assert res.converged
        resolved_rows = np.flatnonzero(~np.isin(lists.query_ids, res.unresolved))
        holder = {int(lists.ids[r, res.ranks[r]]): r for r in resolved_rows.tolist()}
        assert len(holder) == len(resolved_rows)  # one query per held answer

        def claim(row, col):
            return lists.scores[row, col], -lists.query_ids[row]

        for row in range(len(lists)):
            preferred = res.ranks[row] if row in holder.values() else lists.k
            for col in range(preferred):
                held = holder.get(int(lists.ids[row, col]))
                assert held is not None and claim(held, res.ranks[held]) > claim(row, col)


class TestAssignmentOracle:
    def test_hand_2x2(self):
        sims = np.array([[0.9, 0.1], [0.8, 0.7]], dtype=np.float32)
        assign, total = assignment_oracle(sims, "exhaustive")
        assert assign == {0: 0, 1: 1}
        assert total == pytest.approx(1.6, abs=1e-6)

    def test_identity_matrix_diagonal(self):
        assign, total = assignment_oracle(np.eye(5, dtype=np.float32), "matching")
        assert assign == {i: i for i in range(5)}
        assert total == pytest.approx(5.0)

    def test_matching_equals_exhaustive_8x8(self):
        for seed in range(5):
            sims = np.random.default_rng(seed).random((8, 8)).astype(np.float32)
            _, exhaustive_total = assignment_oracle(sims, "exhaustive")
            _, matching_total = assignment_oracle(sims, "matching")
            assert matching_total == pytest.approx(exhaustive_total, abs=1e-9)

    def test_too_large_for_exhaustive(self):
        with pytest.raises(TooLarge):
            assignment_oracle(np.zeros((13, 13), dtype=np.float32), "exhaustive")

    def test_rectangular_instances(self):
        sims = np.random.default_rng(9).random((3, 6)).astype(np.float32)
        _, exhaustive_total = assignment_oracle(sims, "exhaustive")
        _, matching_total = assignment_oracle(sims, "matching")
        assert matching_total == pytest.approx(exhaustive_total, abs=1e-9)
        with pytest.raises(InvalidConfig):
            assignment_oracle(sims.T, "matching")

    def test_oracle_upper_bounds_greedy(self):
        for seed in range(10):
            n = 4 + seed % 5
            sims = np.random.default_rng(100 + seed).random((n, n)).astype(np.float32)
            lists = similarity.top_k(sims, n)
            res = resolve(lists)
            greedy_total = sum(v[1] for v in resolved(lists, res)[0].values())
            _, optimal = assignment_oracle(sims, "matching")
            assert greedy_total <= optimal + 1e-6


class TestResolutionOutput:
    def test_resolved_lists_lead_with_assignment(self):
        lists = ranking([
            rl(0, (1, 0.9), (2, 0.5), (3, 0.1)),
            rl(1, (1, 0.7), (4, 0.6), (5, 0.2)),
        ])
        res = resolve(lists)
        out, source_ranks = resolution_to_lists(lists, res)
        assert rows_of(out)[1][1][0] == (4, 0.6)
        assert source_ranks[1].tolist() == [2, 1, 3]
        # untouched query keeps its order
        assert rows_of(out)[0] == rows_of(lists)[0]
        assert source_ranks[0].tolist() == [1, 2, 3]

    def test_write_files(self, tmp_path):
        lists = ranking([rl(0, (1, 0.9), (2, 0.5)), rl(1, (1, 0.7), (4, 0.6))])
        res = resolve(lists)
        write_resolution(tmp_path / "resolved.tsv", lists, res, meta={"depth": 1})
        write_audit(tmp_path / "audit.tsv", res, meta={"depth": 1})
        resolved_lines = (tmp_path / "resolved.tsv").read_text().splitlines()
        assert any(line.split("\t")[:4] == ["1", "1", "4", "0.6"] for line in resolved_lines)
        audit_lines = [
            l for l in (tmp_path / "audit.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(audit_lines) == 1
        round_, answer, winner, loser, delta = audit_lines[0].split("\t")
        assert (round_, answer, winner, loser) == ("1", "1", "0", "1")
        assert float(delta) == pytest.approx(0.2)

    def test_collision_free_round_trips(self, tmp_path):
        sims = np.diag([0.9, 0.8, 0.7]).astype(np.float32) + 0.05
        lists = similarity.top_k(sims, 3)
        res = resolve(lists)
        assert resolved(lists, res)[1] == []
        out, _ = resolution_to_lists(lists, res)
        assert rows_of(out) == rows_of(lists)
