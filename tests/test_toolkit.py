"""Disk format, benchmark harness, and command-line interface."""

import random
import re
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import semimatch.bench as bench_mod
import semimatch.formats as formats
from semimatch.bench import (
    CSV_COLUMNS,
    BenchCase,
    SolverDisagreementError,
    records_to_csv,
    run_bench,
)
from semimatch.cli import main as cli_main
from semimatch.core import (
    MAX_WEIGHT,
    BipartiteInstance,
    InfeasibleInstanceError,
    cost_of_semi_matching,
)
from semimatch.cover import GeneralGraph, find_center, minimum_edge_cover
from semimatch.formats import (
    BadWeightError,
    CountMismatchError,
    IdOutOfRangeError,
    MalformedHeaderError,
    ParseError,
    emit_assignment,
    emit_instance,
    parse_assignment,
    parse_instance,
)
from semimatch.generate import gen_random, gen_random_graph
from semimatch.oracle import (
    ASSIGNMENT_LIMIT,
    SUBSET_LIMIT,
    assignment_search_space,
    brute_force_balanced_cover,
    brute_force_semi_matching,
)
from semimatch.unweighted import solve_unweighted
from semimatch.weighted import solve_weighted

from referees import (
    edge_triples,
    layout,
    parse_assignment_by_records,
    parse_instance_by_records,
    weight,
)


class TestParseInstance:
    def test_semimatch_example(self):
        inst = parse_instance("p semimatch 2 1 2\ne 1 1 1\ne 2 1 2\n")
        assert isinstance(inst, BipartiteInstance)
        assert (inst.num_jobs, inst.num_machines) == (2, 1)
        assert weight(inst, 0, 0) == 1
        assert weight(inst, 1, 0) == 2

    def test_cover_example(self):
        g = parse_instance("c a path\np cover 3 2\ne 1 2\ne 2 3\n")
        assert isinstance(g, GeneralGraph)
        assert set(g.edges) == {(0, 1), (1, 2)}

    def test_machine_id_out_of_range_reports_line(self):
        with pytest.raises(IdOutOfRangeError) as exc_info:
            parse_instance("p semimatch 1 1 1\ne 1 2 1\n")
        assert exc_info.value.line_no == 2

    @pytest.mark.parametrize(
        "text, exc",
        [
            ("", MalformedHeaderError),
            ("p nonsense 1 1\n", MalformedHeaderError),
            ("p semimatch 1 1\n", MalformedHeaderError),
            ("p semimatch 1 1 2\ne 1 1 1\n", CountMismatchError),
            ("p semimatch 1 1 0\ne 1 1 1\n", CountMismatchError),
            ("p semimatch 1 1 1\ne 1 1 -5\n", BadWeightError),
            ("p semimatch 1 1 1\ne 1 1\n", BadWeightError),
            ("p cover 2 1\ne 1 1\n", ParseError),  # self-loop
            ("p cover 2 2\ne 1 2\ne 2 1\n", ParseError),  # duplicate
            ("p cover 2 1\nx 1 2\n", ParseError),  # unknown record
            ("p semimatch 2 1 2\ne 1 1 1\ne 1 1 2\n", ParseError),  # dup edge
        ],
    )
    def test_named_errors(self, text, exc):
        with pytest.raises(exc):
            parse_instance(text)

    def test_zero_weight_is_legal(self):
        inst = parse_instance("p semimatch 1 1 1\ne 1 1 0\n")
        assert weight(inst, 0, 0) == 0

    def test_jobless_job_is_semantic_not_syntactic(self):
        # parses fine; the instance itself is infeasible
        with pytest.raises(InfeasibleInstanceError):
            parse_instance("p semimatch 2 1 1\ne 1 1 4\n")

    def test_edgeless_jobs_rejected_before_a_list_per_job(self):
        # A few bytes of header declare 10**6 jobs but no edge; the
        # infeasibility is reported without allocating per-job lists.
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleInstanceError, match="^job 0 has no incident edges"):
                parse_instance("p semimatch 1000000 1 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_header_with_a_tiny_body_allocates_nothing_per_id(self):
        # The id table is bounded by the body's length, not by the header.
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleInstanceError, match="^job 1 has no incident edges"):
                parse_instance("p semimatch 100000000 100000000 1\ne 1 1 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_isolated_vertices_rejected_before_a_list_per_vertex(self):
        # The cover twin of the test above: 10**6 vertices, no edge.
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleInstanceError, match="^vertex 0 has no incident edges"):
                parse_instance("p cover 1000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "num_vertices, edges, isolated",
        [
            (5, [(2, 0)], 1),  # more than twice as many vertices as edges
            (4, [(0, 1), (2, 0)], 3),
            (6, [(5, 0), (0, 1), (3, 5)], 2),
        ],
    )
    def test_isolated_vertex_named_like_minimum_edge_cover(self, num_vertices, edges, isolated):
        graph = GeneralGraph(num_vertices, edges)
        with pytest.raises(InfeasibleInstanceError) as covered:
            minimum_edge_cover(graph)
        with pytest.raises(InfeasibleInstanceError) as parsed:
            parse_instance(emit_instance(graph, comments=["isolated"]))
        assert str(parsed.value) == str(covered.value) == (
            f"vertex {isolated} has no incident edges; no edge cover exists"
        )

    def test_edgeless_job_named_like_the_constructor(self):
        edges = [(0, 0, 1), (1, 1, 1), (3, 0, 1)]
        text = "c not canonical\np semimatch 5 2 3\ne 1 1 1\ne 2 2 1\ne 4 1 1\n"
        with pytest.raises(InfeasibleInstanceError) as built:
            BipartiteInstance(5, 2, edges)
        with pytest.raises(InfeasibleInstanceError) as parsed:
            parse_instance(text)
        assert str(parsed.value) == str(built.value) == (
            "job 2 has no incident edges; no assignment exists"
        )

    def test_body_error_named_before_edgeless_jobs(self):
        with pytest.raises(IdOutOfRangeError) as exc_info:
            parse_instance("p semimatch 1000000 1 1\ne 1 2 1\n")
        assert exc_info.value.line_no == 2

    def test_comments_and_blank_lines_skipped(self):
        inst = parse_instance(
            "c header comment\n\np semimatch 1 1 1\nc mid\ne 1 1 3\n\n"
        )
        assert weight(inst, 0, 0) == 3

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_raises_a_named_error(self, text):
        try:
            parse_instance(text)
        except (ParseError, InfeasibleInstanceError):
            pass

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["p", "e", "c", "semimatch", "cover", "x",
                                 "0", "1", "2", "3", "-1", "99"]),
                max_size=6,
            ).map(" ".join),
            max_size=8,
        ).map("\n".join)
    )
    @settings(max_examples=400, deadline=None)
    def test_structured_junk_parses_or_raises(self, text):
        try:
            parse_instance(text)
        except (ParseError, InfeasibleInstanceError):
            pass


BAD_ASSIGNMENTS = [
    "a 1 1\n",  # no cost trailer
    "cost 3\ncost 3\n",  # two trailers
    "a 0 1\ncost 2\n",  # ids are 1-based
    "b 1 1\ncost 0\n",  # unknown record
    "cost 1\na 1 1\n",  # trailer must come last
]


class TestEmitRoundTrips:
    @pytest.mark.parametrize("seed", range(40))
    def test_semimatch_emit_parse_emit_is_identity(self, seed):
        rng = random.Random(seed)
        inst = gen_random(
            rng,
            rng.randint(1, 12),
            rng.randint(1, 6),
            edge_prob=rng.uniform(0.2, 1.0),
            max_weight=rng.choice([1, 9]),
        )
        text = emit_instance(inst, comments=["round trip"])
        again = parse_instance(text)
        assert emit_instance(again) == emit_instance(inst)
        # The parser skips the constructor's checks but builds the same instance.
        rebuilt = BipartiteInstance(inst.num_jobs, inst.num_machines, edge_triples(again))
        assert layout(again) == layout(rebuilt)
        assert edge_triples(again) == edge_triples(rebuilt)

    @pytest.mark.parametrize("seed", range(12))
    def test_emit_equals_a_sort_of_every_edge(self, seed):
        # Shuffled constructor input, cover text and an empty body all
        # come out as a sort of (u, v, w) triples over every edge would
        # write them.
        rng = random.Random(seed)
        jobs, machines = rng.randint(0, 20), rng.randint(1, 6)
        edges = [
            (u, v, rng.choice([0, 1, 1, 5, MAX_WEIGHT]))
            for u in range(jobs)
            for v in rng.sample(range(machines), rng.randint(1, machines))
        ]
        rng.shuffle(edges)
        inst = BipartiteInstance(jobs, machines, edges)
        # A unit instance with two-digit machine ids, which emit joins.
        wide = rng.randint(10, 30)
        unit = BipartiteInstance(jobs, wide, [
            (u, v, 1) for u in range(jobs) for v in rng.sample(range(wide), rng.randint(1, wide))
        ])
        n, pairs = gen_random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.9))
        rng.shuffle(pairs)
        for x in (inst, unit, BipartiteInstance(0, wide, []), GeneralGraph(n, pairs)):
            assert emit_instance(x, comments=["c"]) == emit_by_sorting_triples(x, ["c"])

    def test_emit_equals_a_sort_of_every_edge_on_pool_instances(self, pool_workloads):
        for workload in pool_workloads.WORKLOADS.values():
            if workload.kind == "cover":
                continue
            for index in (3, 12):
                inst = workload.instance(index)
                assert emit_instance(inst) == emit_by_sorting_triples(inst, [])

    def test_criterion_9_instance_emits_in_little_memory(self):
        # Unit jobs are written one join each: about 4.3 MiB above the
        # start, against 9.1 MiB for a line per edge.
        inst = gen_random(random.Random(0xAC09), 10_000, 1_000, num_edges=100_000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            text = emit_instance(inst)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 100_001
        assert peak < 6 << 20

    def test_comments_go_first_and_reparse_cleanly(self):
        inst = gen_random(random.Random(3), 4, 2, edge_prob=1.0)
        text = emit_instance(inst, comments=["alpha", "beta"])
        lines = text.splitlines()
        assert lines[0] == "c alpha" and lines[1] == "c beta"
        assert emit_instance(parse_instance(text)) == emit_instance(inst)

    def test_cover_round_trip(self):
        g = GeneralGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert emit_instance(parse_instance(emit_instance(g))) == emit_instance(g)

    def test_assignment_round_trip(self):
        pairs = ((0, 3), (1, 0), (2, 3))
        back, cost = parse_assignment(emit_assignment(pairs, 17))
        assert back == pairs
        assert cost == 17

    @pytest.mark.parametrize("bad", BAD_ASSIGNMENTS)
    def test_bad_assignments(self, bad):
        with pytest.raises(ParseError):
            parse_assignment(bad)


def assignment_outcome(parse, text):
    """What ``parse`` makes of solution ``text``: its pairs and cost, or
    the class, line number and message of what it raised."""
    try:
        return parse(text)
    except Exception as exc:  # every outcome is compared, not only ParseError
        return type(exc), getattr(exc, "line_no", None), str(exc)


ASSIGNMENT_LINES = [
    "a 1 2", "a 3 1", "a 0 1", "a 1 -1", "a +1 2", "a 1_0 3", "a x 1", "a 1 y", "a 1",
    "a 1 1 1", "a", "cost 7", "cost -2", "cost", "cost x", "cost 1 2", "c a comment",
    "c", "", "   ", "b 1 1", "A 1 2",
]


class TestParseAssignmentAgainstReferee:
    """``parse_assignment`` reads each line in one loop and converts both
    ids in one try; the per-record referee reads one field at a time."""

    @pytest.mark.parametrize(
        "text",
        BAD_ASSIGNMENTS
        + [
            "a 1\ncost 0\n",
            "a x 1\ncost 0\n",
            "a 1 x\ncost 0\n",
            "a 1 1 1\ncost 0\n",
            "a 1 1\ncost\n",
            "a 1 1\ncost x\n",
            "c one\n\na 1 2\n   \nc two words\na 2 1\n\ncost 5\nc after\n\n",
            "a 1 2\r\na 2 1\r\n\r\ncost 3\r\n",
            "a 1 2\r\nb\r\ncost 3\r\n",
            "a 1 1\ncost 1\na 2 2\n",
            "a 1 1\ncost 1\na 2\n",
            "a 1 0\ncost 1\n",
            "",
            "c only a comment\n",
        ],
    )
    def test_listed_texts(self, text):
        got = assignment_outcome(parse_assignment, text)
        assert got == assignment_outcome(parse_assignment_by_records, text)

    @given(
        st.lists(st.sampled_from(ASSIGNMENT_LINES), max_size=8),
        st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=600, deadline=None)
    def test_random_line_mixes(self, lines, end):
        text = end.join(lines) + end
        got = assignment_outcome(parse_assignment, text)
        assert got == assignment_outcome(parse_assignment_by_records, text)

    def test_an_emitted_solution_of_each_pool_workload(self, pool_workloads):
        for name, workload in pool_workloads.WORKLOADS.items():
            inst = workload.instance(0)
            if workload.kind == "cover":
                cover = find_center(inst)
                text = emit_assignment(sorted(cover.edges), cover.balanced_cost())
            else:
                solve = solve_unweighted if workload.kind == "unit" else solve_weighted
                matching = solve(inst)
                text = emit_assignment(
                    enumerate(matching.machine_of), cost_of_semi_matching(inst, matching)
                )
            got = assignment_outcome(parse_assignment, text)
            assert got == assignment_outcome(parse_assignment_by_records, text), name
            assert got[1] == pool_workloads.load_references()[name][0], name


def emit_by_sorting_triples(instance, comments):
    """``emit_instance`` as it read before it sorted per job: one sort of
    every edge's ``(job, machine, weight)`` triple."""
    out = [f"c {c}" for c in comments]
    if isinstance(instance, BipartiteInstance):
        triples = sorted(edge_triples(instance))
        out.append(f"p semimatch {instance.num_jobs} {instance.num_machines} {len(triples)}")
        out.extend(f"e {u + 1} {v + 1} {w}" for u, v, w in triples)
    else:
        out.append(f"p cover {instance.num_vertices} {instance.num_edges}")
        out.extend(f"e {a + 1} {b + 1}" for a, b in sorted(instance.edges))
    return "\n".join(out) + "\n"


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the parsed instance's contents,
    or the class, line number and message of what it raised."""
    try:
        got = parse(text)
    except Exception as exc:  # every outcome is compared, not only ParseError
        return type(exc), getattr(exc, "line_no", None), str(exc)
    if isinstance(got, BipartiteInstance):
        return "semimatch", got.num_jobs, got.num_machines, edge_triples(got), layout(got)
    return "cover", got.num_vertices, got.edges, got.adj


ODD_FIELDS = ["0", "-1", "+1", "1_0", "01", "x", "1.0", "\u0663"]
BIG_FIELDS = ["2147483647", "2147483648", "-2147483648"]


@st.composite
def instance_texts(draw):
    """Near-valid instance text of up to 3 jobs, machines or vertices:
    now and then an odd or out-of-range field, a missing or extra token,
    a wrong edge count, a comment, blank or junk line, and either line
    ending.  Header counts stay small, since a header that declared
    2**31 jobs would have the instance allocate that many lists."""

    # The rare cases key on a middle value: hypothesis draws 0 most.
    def token(value, odd):
        """``value``, and one time in eight an odd token instead."""
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 7)) == 5 else str(value)

    def misshape(tokens):
        """``tokens``, and one time in eight with one dropped or added."""
        how = draw(st.integers(0, 15))
        return tokens[:-1] if how == 5 else tokens + ["1"] if how == 6 else tokens

    kind = draw(st.sampled_from(["semimatch", "cover"]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ends = [n, m] if kind == "semimatch" else [n, n]
    body, num_edges = [], 0
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["edge"] * 6 + ["comment", "blank", "junk"]))
        if shape == "edge":
            fields = [token(draw(st.integers(1, end)), ODD_FIELDS + BIG_FIELDS) for end in ends]
            if kind == "semimatch":
                fields.append(token(draw(st.integers(0, 3)), ODD_FIELDS + BIG_FIELDS))
            body.append(" ".join(misshape(["e"] + fields)))
            num_edges += 1
        elif shape == "comment":
            body.append(" ".join(["c"] + draw(st.lists(st.sampled_from(ODD_FIELDS), max_size=4))))
        elif shape == "blank":
            body.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            junk = st.sampled_from(["p", "x", "a", "semimatch"] + ODD_FIELDS)
            body.append(" ".join(draw(st.lists(junk, min_size=1, max_size=4))))
    counts = [n, m] if kind == "semimatch" else [n]
    counts.append(num_edges + draw(st.sampled_from([0] * 6 + [-1, 1])))
    header = misshape(["p", kind] + [token(c, ODD_FIELDS) for c in counts])
    lead = draw(st.lists(st.sampled_from(["", "c", "c lead comment"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lead + [" ".join(header)] + body) + draw(st.sampled_from(["", newline]))


class TestParseAgainstReferee:
    """``parse_instance`` against the record-by-record parser it
    replaced: the same instance, or the same exception class, line
    number and message."""

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        assert parse_outcome(parse_instance, text) == parse_outcome(parse_instance_by_records, text)

    @given(instance_texts())
    @settings(max_examples=1500, deadline=None)
    def test_structured_text(self, text):
        assert parse_outcome(parse_instance, text) == parse_outcome(parse_instance_by_records, text)

    @pytest.mark.parametrize(
        "text, want",
        [
            # A comment line with exactly as many tokens as an edge line.
            ("p semimatch 1 1 1\nc 1 1 1\ne 1 1 5\n", ((0, 0, 5),)),
            # int() reads signs and digit separators.
            ("p semimatch 2 10 2\ne +1 1_0 1\ne 2 +1 1_0\n", ((0, 9, 1), (1, 0, 10))),
            ("p semimatch 1 1 1\r\ne 1 1 2\r\n", ((0, 0, 2),)),
            ("\n\nc before the header\n  \np semimatch 1 1 1\ne 1 1 3", ((0, 0, 3),)),
            ("p cover 3 2\ne 2 1\ne 3 2\n", ((0, 1), (1, 2))),
        ],
    )
    def test_accepted(self, text, want):
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert outcome[3 if outcome[0] == "semimatch" else 2] == want

    @pytest.mark.parametrize(
        "text, exc, line_no, message",
        [
            ("", MalformedHeaderError, 0, "empty input, expected a 'p' header"),
            ("c only a comment\n\n", MalformedHeaderError, 0, "empty input, expected a 'p' header"),
            # The extra edge line is itself malformed: the count is what fails.
            ("p semimatch 1 1 1\ne 1 1 1\ne x\n", CountMismatchError, 3,
             "header declared 1 edges but the body has more"),
            ("p cover 3 2\ne 1 2\ne 2 1\n", ParseError, 3, "duplicate edge (1, 2)"),
            ("p semimatch 2 2 2\ne 1 2 1\ne 1 2 1\n", ParseError, 3, "duplicate edge (1, 2)"),
            # With several bad fields, the first one is named.
            ("p semimatch 1 1 1\ne x y z\n", ParseError, 2, "job id 'x' is not an integer"),
            ("p semimatch 1 1 1\ne 1 x y\n", ParseError, 2, "machine id 'x' is not an integer"),
            ("p semimatch 1 1 1\ne 1 1 1.0\n", BadWeightError, 2, "weight '1.0' is not an integer"),
            ("p cover 2 1\r\ne 1 z\r\n", ParseError, 2, "vertex id 'z' is not an integer"),
            ("p semimatch 1 1 1\ne 2 1 1\n", IdOutOfRangeError, 2, "job id 2 out of range [1, 1]"),
            ("p semimatch 1 1 2\ne 1 1 1\n", CountMismatchError, 1,
             "header declared 2 edges but the body has 1"),
        ],
    )
    def test_rejected(self, text, exc, line_no, message):
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert outcome == (exc, line_no, f"line {line_no}: {message}")


def near_canonical(base, how):
    """``base``, canonical text of more than 7000 lines, with the changes
    ``how`` names, comma-separated.  A change to one body line is made
    on line 7001, past the bulk pass's first slice."""
    lines = base.split("\n")
    newline = "\n"
    for change in how.split(", "):
        tag, job, machine, w = lines[7000].split(" ")
        edits = {
            "bad token": f"e {job} x {w}",
            "duplicate": lines[6999],
            "job id 0": f"e 0 {machine} {w}",
            "weight 2**31": f"e {job} {machine} 2147483648",
            "leading zero": f"e 0{job} {machine} {w}",
            "leading zero weight": f"e {job} {machine} 0{w}",
            "plus sign": f"e +{job} {machine} {w}",
            "digit separator": f"e {job[0]}_{job[1:]} {machine} {w}",
            "tab": f"e\t{job} {machine} {w}",
            "double space": f"e {job}  {machine} {w}",
            "comment mid-body": f"c mid-body\n{lines[7000]}",
            "extra line": f"{lines[7000]}\n{lines[7000]}",
            "duplicate of an earlier slice": lines[1],
            "weight 2": f"e {job} {machine} 2",
            # Past the id table, which stops at an eighth of the body's length.
            "machine id above the table": f"e {job} 1000000 {w}",
            # Over int()'s 4300-digit limit for str, so int() fails.
            "5000-digit weight": f"e {job} {machine} {'9' * 5000}",
            # As many space-split pieces as the canonical line, but the job
            # piece holds "\ne" and the weight piece is empty.
            "job split off": f"e {job}\ne {machine} {w}",
            "weight left empty": f"e {job} {machine} ",
            "trailing space": f"e {job} {machine} {w} ",
            "CRLF line": f"e {job} {machine} {w}\r",
        }
        counts = change.split(" ")
        if change in edits:
            lines[7000] = edits[change]
        elif counts[0] in ("jobs", "machines", "edges"):  # "<count> <delta>"
            header = lines[0].split(" ")
            k = ["jobs", "machines", "edges"].index(counts[0]) + 2
            header[k] = str(int(header[k]) + int(counts[1]))
            lines[0] = " ".join(header)
        elif change == "5000-digit edge count":
            lines[0] = lines[0].rsplit(" ", 1)[0] + " 1" + "0" * 4999
        elif change == "last weight 2":
            lines[-2] = lines[-2].rsplit(" ", 1)[0] + " 2"
        elif change == "no trailing newline":
            lines.pop()
        elif change == "CRLF":
            newline = "\r\n"
        elif change == "comment before the header":
            lines.insert(0, "c lead")
        elif change == "swap":  # lines 7001 and 7002
            lines[7000:7002] = lines[7001], lines[7000]
        elif change == "unit body":
            lines = [re.sub(r" \d+$", " 1", line) if line[:1] == "e" else line for line in lines]
        else:
            raise ValueError(change)
    return newline.join(lines)


@pytest.fixture
def reads(monkeypatch):
    """Every call of the bulk reader: the offset of the body it was given
    and the columns it returned (``None``: the body was read line by line)."""
    calls = []

    def spy(text, start, *args):
        calls.append((start, read_bulk(text, start, *args)))
        return calls[-1][1]

    read_bulk = formats._read_bulk
    monkeypatch.setattr(formats, "_read_bulk", spy)
    return calls


def routes(reads):
    """For each read, whether it converted the body."""
    return [columns is not None for _start, columns in reads]


class TestBulkPass:
    """A ``semimatch`` body in the bulk subset is converted whole; any
    other body, and one with an error, is read line by line, and the
    outcome is exactly the referee's."""

    @pytest.fixture(scope="class")
    def base(self):
        text = emit_instance(gen_random(random.Random(5), 1000, 60, num_edges=8000, max_weight=9))
        assert text.count("\n") > 7001
        return text

    @pytest.fixture(scope="class")
    def large(self):
        """A unit instance of the paper's size, 10**4 jobs and 10**5 edges."""
        return gen_random(random.Random(11), 10_000, 1_000, num_edges=100_000)

    def test_large_instance_matches_the_referee(self, large, reads):
        text = emit_instance(large)
        want = parse_instance_by_records(text)
        for text in (text, emit_instance(large, comments=["seed 11"])):
            reads.clear()
            got = parse_instance(text)
            assert got.num_edges == want.num_edges == large.num_edges >= 100_000
            assert layout(got) == layout(want) == layout(large)
            assert got.job_weights is None
            # The body, from the line after the header on, converts in
            # bulk, and unit weights make no weight column.
            [(start, (jobs, _machines, weights))] = reads
            assert start == text.index("\n", text.index("p semimatch")) + 1
            assert len(jobs) == large.num_edges and weights == []

    def test_large_instance_parses_in_little_memory(self, large):
        text = emit_instance(large)
        tracemalloc.start()
        try:
            parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20

    @pytest.mark.parametrize("how, bound", [("comment mid-body", 16), ("bad last line", 13)])
    def test_the_line_route_parses_in_little_memory(self, large, how, bound):
        # Read line by line, the body is still split one slice at a time
        # and its ids still decode through the id table.  Peaks: about 13.3
        # and 10.7 MiB; splitting the whole text at once, or converting ids
        # with int(), adds 2 to 7 MiB.
        lines = emit_instance(large).split("\n")
        if how == "comment mid-body":
            lines.insert(len(lines) // 2, "c mid-body")
        else:
            lines[-2] += "x"
        text = "\n".join(lines)
        tracemalloc.start()
        try:
            try:
                parse_instance(text)
            except BadWeightError:
                assert how == "bad last line"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound << 20

    @staticmethod
    def above_the_table(spelling="19500"):
        """Text whose machine ids from 19001 on are past the id table,
        which stops at an eighth of the body's length, with machine 19500
        of job 2 spelled ``spelling``."""
        machines = list(range(1, 1001)) + list(range(19001, 20001))
        text = "p semimatch 3 20000 4001\n" + "".join(
            [f"e 1 {v} 1\n" for v in machines] + [f"e 2 {v} 3\n" for v in machines] + ["e 3 5 1\n"]
        )
        assert len(text) // 8 < 19000
        return text.replace("e 2 19500 3\n", f"e 2 {spelling} 3\n")

    def test_ids_above_the_table_convert_in_bulk(self, reads):
        # A miss on the table converts a canonical spelling.
        text = self.above_the_table()
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert outcome[0] == "semimatch" and outcome[4][0][1][-1] == 19999
        assert routes(reads) == [True]

    @pytest.mark.parametrize("spelling", ["019500", "+19500", "\u0661\u0669\u0665\u0660\u0660"])
    def test_other_spellings_above_the_table_are_read_by_lines(self, reads, spelling):
        # int() reads these as it reads 19500, but only the line loop does.
        text = self.above_the_table(spelling)
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert outcome == parse_outcome(parse_instance_by_records, self.above_the_table())
        assert routes(reads) == [False]

    @pytest.mark.parametrize("side", ["job", "machine"])
    def test_each_side_has_its_own_id_table(self, reads, side):
        # 3 jobs and 50 machines, or the reverse.  The last line's id 4 on
        # the side of 3 is past its own count but within the other's.
        small, large = 3, 50
        pairs = [(u, v) for u in range(1, small + 1) for v in range(1, large + 1)]
        if side == "machine":
            pairs = sorted((v, u) for u, v in pairs)
        pairs[-1] = (small + 1, 1) if side == "job" else (large, small + 1)
        counts = (small, large) if side == "job" else (large, small)
        text = f"p semimatch {counts[0]} {counts[1]} {len(pairs)}\n" + "".join(
            f"e {u} {v} 1\n" for u, v in pairs
        )
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert outcome[0] is IdOutOfRangeError and f"{side} id 4 out of range [1, 3]" in outcome[2]
        assert routes(reads) == [False]

    @pytest.mark.parametrize(
        "how, falls_back",
        [
            ("bad token", True),
            ("duplicate", True),
            ("job id 0", True),
            ("weight 2**31", True),
            ("5000-digit weight", True),
            # The header fails: no body is read at all.
            ("5000-digit edge count", False),
            # int() reads these, but only the line loop does.
            ("leading zero", True),
            ("leading zero weight", True),
            ("plus sign", True),
            ("digit separator", True),
            ("no trailing newline", True),
            ("CRLF", True),
            ("tab", True),
            ("double space", True),
            ("comment before the header", False),
            ("comment mid-body", True),
            ("edges -1", True),
            # Every line is in the subset, but there is one edge too few:
            # the line loop reads the body and the count fails at the end.
            ("edges +1", True),
            # A repeated line: one line too many, but as many distinct
            # edges as the header declares.
            ("extra line", True),
            ("jobs -1", True),  # job 1000 out of range
            # More jobs than edges: some job has no edge, and the build
            # names it before it allocates a list per job.
            ("jobs +8000", False),
            ("machines -1", True),  # machine 60 out of range
            # Job 1001 has no edge, and the build raises the referee's
            # InfeasibleInstanceError.
            ("jobs +1", False),
            ("machines +1", False),  # an idle machine
            # Legal, but out of order: a set of keys rules out repeats.
            ("swap", False),
            ("duplicate of an earlier slice", True),
            # The body converts into a weight column, 1s before it.
            ("unit body, weight 2", False),
            ("unit body, weight 2, tab", True),
            ("unit body", False),
            # Legal, and past the id table, but its key is out of order.
            ("machines +1000000, machine id above the table", False),
            # Canonical, but past the machine count: the table's miss
            # converts only ids up to it.
            ("machine id above the table", True),
            # Seams of the space split: pieces that join back into other
            # lines than `e J M W\n`.
            ("job split off", True),
            ("weight left empty", True),
            ("trailing space", True),
            ("CRLF line", True),
            # Only the last tail is not "1\n", in the last slice; the
            # weight column is padded with 1s up to it.
            ("unit body, last weight 2", False),
        ],
    )
    def test_near_canonical_text(self, base, reads, how, falls_back):
        text = near_canonical(base, how)
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        if how.startswith("unit body"):  # a weight column only for a weight 2
            assert (outcome[4][2] is None) == (how == "unit body")
        if how == "unit body, last weight 2":
            assert sum(map(sum, outcome[4][2])) == len(outcome[3]) + 1
        if how == "5000-digit edge count":
            assert reads == []
        else:
            assert routes(reads) == [not falls_back]

    def test_a_repeat_across_a_slice_boundary_is_named(self, base, reads):
        # The first line of the second slice repeats the last of the
        # first, and every other pair is in order.
        start = base.index("\n") + 1
        cut = start + len(next(formats._slices(base, start)))
        first = base[start:cut]
        text = base[:cut] + first.splitlines()[-1] + base[base.index("\n", cut):]
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert outcome[0] is ParseError and "duplicate edge" in outcome[2]
        assert routes(reads) == [False]

    @pytest.mark.parametrize("seed", range(16))
    def test_shuffled_canonical_bodies_match_the_referee(self, base, reads, seed):
        # A run of body lines, or the whole body, shuffled, and in every
        # other text one of them replaced by a copy of some other line.
        rng = random.Random(seed)
        header, *body, end = base.split("\n")
        lo, hi = (0, len(body)) if seed % 4 == 0 else sorted(rng.sample(range(len(body)), 2))
        run = body[lo:hi]
        rng.shuffle(run)
        body[lo:hi] = run
        if seed % 2:
            body[rng.randrange(lo, hi)] = rng.choice(body)
        text = "\n".join([header, *body, end])
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        # Out of order, the body still converts in bulk, unless a copy
        # repeats an edge, which the line loop then names.
        assert seed % 2 or outcome[0] == "semimatch"
        assert routes(reads) == [outcome[0] == "semimatch"]

    def test_a_shuffled_body_converts_in_bulk(self, large, reads):
        header, *body = emit_instance(large).splitlines(keepends=True)
        random.Random(3).shuffle(body)
        text = header + "".join(body)
        got = parse_instance(text)
        assert layout(got) == layout(parse_instance_by_records(text))
        assert routes(reads) == [True]

    def test_expressions_compile_on_python_3_10(self):
        # Possessive repeats and atomic groups arrived in Python 3.11's re.
        expressions = [v for v in vars(formats).values() if isinstance(v, re.Pattern)]
        assert formats._WEIGHT_TAILS in expressions
        for expr in expressions:
            assert re.search(r"[*+?}]\+|\(\?>", expr.pattern) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_emitted_text_never_reaches_the_line_loop(self, reads, seed):
        rng = random.Random(seed)
        inst = gen_random(
            rng,
            rng.randint(0, 30),
            rng.randint(1, 12),
            edge_prob=rng.uniform(0.05, 1.0),
            min_weight=rng.choice([0, 1]),
            max_weight=rng.choice([1, 9, MAX_WEIGHT]),
        )
        # semimatch gen writes its seed as a comment before the header.
        text = emit_instance(inst, comments=[f"seed {seed}"])
        again = parse_instance(text)
        assert layout(again) == layout(inst)
        assert emit_instance(again, comments=[f"seed {seed}"]) == text
        assert routes(reads) == [True]

    def test_every_pool_text_converts_in_bulk(self, reads, pool_workloads):
        checked = 0
        for workload in pool_workloads.WORKLOADS.values():
            for index in range(pool_workloads.POOL_SIZE):
                text = workload.text(index)
                reads.clear()
                assert emit_instance(parse_instance(text)) == text
                assert routes(reads) == [True]
                checked += 1
        assert checked == 4 * pool_workloads.POOL_SIZE == 64

    @pytest.mark.parametrize("max_weight", [1, 9])
    def test_gen_output_converts_in_bulk(self, reads, max_weight):
        result = CliRunner().invoke(cli_main, [
            "gen", "--jobs", "3000", "--machines", "40", "--edge-prob", "0.05",
            "--max-weight", str(max_weight), "--seed", "1",
        ])
        assert result.exit_code == 0 and result.output.startswith("c seed 1\n")
        inst = parse_instance(result.output)
        [(_start, (jobs, _machines, _weights))] = reads
        assert len(jobs) == inst.num_edges and len(result.output) > 2 * formats._CHUNK



def near_canonical_cover(base, how):
    """``base``, canonical cover text of more than 3000 lines, with the
    change ``how`` names.  A change to one body line is made on line
    3001, past the bulk pass's first slice."""
    lines = base.split("\n")
    newline = "\n"
    _tag, a, b = lines[3000].split(" ")
    edits = {
        "reversed": f"e {b} {a}",
        "self-loop": f"e {a} {a}",
        "duplicate": lines[2999],
        "duplicate of an earlier slice": lines[1],
        "leading zero": f"e 0{a} {b}",
        "leading zero, second id": f"e {a} 0{b}",
        "plus sign": f"e +{a} {b}",
        "tab": f"e\t{a} {b}",
        "double space": f"e {a}  {b}",
        "comment mid-body": f"c mid-body\n{lines[3000]}",
        "extra line": f"{lines[3000]}\n{lines[3000]}",
        # Past the vertex count, which the table's miss does not pass.
        "id above the table": f"e {a} 1000000",
        "trailing space": f"e {a} {b} ",
        "CRLF line": f"e {a} {b}\r",
    }
    if how in edits:
        lines[3000] = edits[how]
    elif how.startswith(("edges ", "vertices ")):  # "<count> <delta>"
        what, delta = how.split(" ")
        header = lines[0].split(" ")
        k = 2 if what == "vertices" else 3
        header[k] = str(int(header[k]) + int(delta))
        lines[0] = " ".join(header)
    elif how == "no trailing newline":
        lines.pop()
    elif how == "CRLF":
        newline = "\r\n"
    elif how == "shuffled":  # still ascending within each pair
        body = lines[1:-1]
        random.Random(1).shuffle(body)
        lines[1:-1] = body
    else:
        raise ValueError(how)
    return newline.join(lines)


class TestCoverBulkPass:
    """A ``cover`` body in the bulk subset is converted whole, as a
    ``semimatch`` body is; any other body is read line by line, and the
    outcome is exactly the referee's."""

    @pytest.fixture(scope="class")
    def base(self):
        text = emit_instance(GeneralGraph(*gen_random_graph(random.Random(5), 2500, 0.002)))
        assert text.count("\n") > 3001 and len(text) > 4 * formats._CHUNK
        return text

    def test_canonical_text_of_several_slices_converts_in_bulk(self, base, reads):
        outcome = parse_outcome(parse_instance, base)
        assert outcome == parse_outcome(parse_instance_by_records, base)
        [(start, (los, his, weights))] = reads
        assert start == base.index("\n") + 1 and weights == []
        assert len(los) == len(his) == len(outcome[2]) == base.count("\n") - 1

    def test_a_pool_size_graph_converts_in_bulk(self, reads):
        text = emit_instance(GeneralGraph(*gen_random_graph(random.Random(9), 2000, 0.001)))
        assert parse_outcome(parse_instance, text) == parse_outcome(parse_instance_by_records, text)
        assert routes(reads) == [True]

    @pytest.mark.parametrize(
        "how, falls_back",
        [
            ("reversed", True),
            ("self-loop", True),
            ("duplicate", True),
            ("duplicate of an earlier slice", True),
            ("leading zero", True),
            ("leading zero, second id", True),
            ("plus sign", True),
            ("tab", True),
            ("double space", True),
            ("CRLF", True),
            ("CRLF line", True),
            ("comment mid-body", True),
            ("extra line", True),
            ("edges -1", True),
            ("edges +1", True),
            ("id above the table", True),
            ("trailing space", True),
            ("no trailing newline", True),
            # Out of order, but each pair ascending: a key set rules out repeats.
            ("shuffled", False),
            # An isolated last vertex, found once the graph is built.
            ("vertices +1", False),
        ],
    )
    def test_near_canonical_text(self, base, reads, how, falls_back):
        text = near_canonical_cover(base, how)
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert routes(reads) == [not falls_back]

    def test_a_last_line_without_its_newline_is_read_by_lines(self, reads):
        # Read as if it had one, the last line would lose its last digit
        # and still be a new edge, (2, 10).
        text = "p cover 100 99\n" + "".join(f"e 1 {v}\n" for v in range(3, 101)) + "e 2 100"
        outcome = parse_outcome(parse_instance, text)
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert outcome[0] == "cover" and outcome[2][-1] == (1, 99)
        assert routes(reads) == [False]

    @pytest.mark.parametrize("lonely", [0, 1234, 2499])
    def test_an_isolated_vertex_after_a_bulk_read_is_named_like_minimum_edge_cover(
        self, base, reads, lonely
    ):
        graph = parse_instance(base)
        edges = [e for e in graph.edges if lonely not in e]
        lonely_graph = GeneralGraph(graph.num_vertices, edges)
        with pytest.raises(InfeasibleInstanceError) as covered:
            minimum_edge_cover(lonely_graph)
        reads.clear()
        with pytest.raises(InfeasibleInstanceError) as parsed:
            parse_instance(emit_instance(lonely_graph))
        assert str(parsed.value) == str(covered.value)
        assert str(parsed.value).startswith(f"vertex {lonely} has no incident edges")
        assert routes(reads) == [True]

    @pytest.mark.parametrize(
        "text, route",
        [
            # More than two vertices per edge: no bulk read, no graph.
            ("p cover 1000000 0\n", []),
            # A body far shorter than the header's counts: the id table
            # is bounded by the body's length, and the edge count fails.
            ("p cover 100000000 50000000\ne 1 2\n", [False]),
        ],
    )
    def test_a_huge_header_allocates_nothing_per_vertex(self, reads, text, route):
        tracemalloc.start()
        try:
            outcome = parse_outcome(parse_instance, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert outcome == parse_outcome(parse_instance_by_records, text)
        assert routes(reads) == route

    def test_gen_output_converts_in_bulk(self, reads):
        result = CliRunner().invoke(cli_main, [
            "gen", "--kind", "cover", "--vertices", "3000", "--edge-prob", "0.002", "--seed", "1",
        ])
        assert result.exit_code == 0 and result.output.startswith("c seed 1\n")
        graph = parse_instance(result.output)
        [(_start, (los, _his, _weights))] = reads
        assert len(los) == graph.num_edges and len(result.output) > 2 * formats._CHUNK


class TestBench:
    def test_plan_order_and_agreement(self):
        cases = [BenchCase("weighted", 8, 4, 0.5, 20, s) for s in range(5)]
        recs = run_bench(cases, ["weighted", "baseline"])
        assert [(r.case.seed, r.solver) for r in recs] == [
            (s, name) for s in range(5) for name in ("weighted", "baseline")
        ]
        by_seed = {}
        for r in recs:
            by_seed.setdefault(r.case.seed, set()).add(r.cost)
        assert all(len(costs) == 1 for costs in by_seed.values())

    def test_csv_shape(self):
        cases = [BenchCase("weighted", 8, 4, 0.5, 20, s) for s in range(3)]
        recs = run_bench(cases, ["weighted", "baseline"])
        lines = records_to_csv(recs).strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(recs)
        assert records_to_csv([]).strip() == ",".join(CSV_COLUMNS)

    def test_counter_columns_match_solver_family(self):
        cases = [BenchCase("unit", 15, 5, 0.4, 1, s) for s in range(3)]
        recs = run_bench(cases, ["unweighted", "convex", "weighted"])
        for rec in recs:
            row = dict(zip(CSV_COLUMNS, rec.as_row()))
            if rec.solver in ("unweighted", "convex"):
                assert row["cancel_rounds"] != ""
                assert row["recursion_depth"] != ""
                assert row["group_relaxations"] == ""
                assert row["machine_pops"] == ""
            else:
                assert row["group_relaxations"] != ""
                assert row["heap_ops"] != ""
                assert row["machine_pops"] != ""
                assert row["cancel_rounds"] == ""

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            run_bench([BenchCase("unit", 3, 2, 1.0, 1, 0)], ["simplex"])

    def test_parallel_run_matches_serial(self):
        cases = [BenchCase("weighted", 10, 4, 0.5, 30, s) for s in range(4)]
        serial = run_bench(cases, ["weighted", "baseline"], workers=1)
        parallel = run_bench(cases, ["weighted", "baseline"], workers=3)
        assert [r.cost for r in serial] == [r.cost for r in parallel]
        assert [r.solver for r in serial] == [r.solver for r in parallel]

    def test_disagreement_aborts(self, monkeypatch):
        monkeypatch.setitem(
            bench_mod.SOLVER_NAMES, "baseline", lambda inst: (10**9, {})
        )
        cases = [BenchCase("weighted", 6, 3, 0.8, 10, 0)]
        with pytest.raises(SolverDisagreementError, match="cost mismatch"):
            run_bench(cases, ["weighted", "baseline"], workers=1)


SEMIMATCH_FILE = "p semimatch 4 2 5\ne 1 1 1\ne 2 1 1\ne 2 2 1\ne 3 2 1\ne 4 2 1\n"
COVER_FILE = "p cover 3 2\ne 1 2\ne 2 3\n"


@pytest.fixture
def runner():
    return CliRunner()


def write(path, text):
    path.write_text(text)
    return str(path)


class TestCliSolve:
    def test_unit_instance_default_objective(self, runner, tmp_path):
        path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        result = runner.invoke(cli_main, ["solve", path])
        assert result.exit_code == 0, result.output
        pairs, cost = parse_assignment(result.output)
        assert cost == 6
        assert len(pairs) == 4

    def test_solution_verifies(self, runner, tmp_path):
        inst_path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        sol_path = str(tmp_path / "out.sol")
        result = runner.invoke(cli_main, ["solve", inst_path, "-o", sol_path])
        assert result.exit_code == 0
        check = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert check.exit_code == 0, check.output
        assert "OK cost 6" in check.output

    def test_cover_objective(self, runner, tmp_path):
        path = write(tmp_path / "g.cov", COVER_FILE)
        result = runner.invoke(cli_main, ["solve", path])
        assert result.exit_code == 0, result.output
        assert "cost 5" in result.output

    def test_objective_kind_mismatch(self, runner, tmp_path):
        path = write(tmp_path / "g.cov", COVER_FILE)
        result = runner.invoke(cli_main, ["solve", path, "--objective", "weighted"])
        assert result.exit_code == 2

    def test_malformed_file(self, runner, tmp_path):
        path = write(tmp_path / "bad.sm", "p semimatch 1 1 99\ne 1 1 1\n")
        result = runner.invoke(cli_main, ["solve", path])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_infeasible_file(self, runner, tmp_path):
        path = write(tmp_path / "inf.sm", "p semimatch 2 1 1\ne 1 1 4\n")
        result = runner.invoke(cli_main, ["solve", path])
        assert result.exit_code == 3

    def test_edgeless_million_job_header_is_infeasible(self, runner, tmp_path):
        path = write(tmp_path / "big.sm", "p semimatch 1000000 1 0\n")
        result = runner.invoke(cli_main, ["solve", path])
        assert result.exit_code == 3

    def test_isolated_million_vertex_header_is_infeasible(self, runner, tmp_path):
        path = write(tmp_path / "big.cov", "p cover 1000000 0\n")
        result = runner.invoke(cli_main, ["solve", path])
        assert result.exit_code == 3
        assert "vertex 1 has no incident edges" in result.output

    @pytest.mark.parametrize(
        "text, named",
        [
            ("p semimatch 2 1 1\ne 1 1 1\n", "job 2 has no incident edges; no assignment exists"),
            ("p cover 3 1\ne 1 2\n", "vertex 3 has no incident edges; no edge cover exists"),
            ("p cover 4 2\ne 1 2\ne 2 3\n", "vertex 4 has no incident edges; no edge cover exists"),
        ],
    )
    def test_an_infeasible_file_names_its_own_id(self, runner, tmp_path, text, named):
        # The library names ids from 0; the message names the file's id.
        path = write(tmp_path / "inf.txt", text)
        result = runner.invoke(cli_main, ["solve", path])
        assert result.exit_code == 3
        assert result.output == f"error: {named}\n"

    def test_baseline_solver_agrees(self, runner, tmp_path):
        text = emit_instance(
            gen_random(random.Random(11), 8, 3, edge_prob=0.7, max_weight=9)
        )
        path = write(tmp_path / "w.sm", text)
        fast = runner.invoke(cli_main, ["solve", path, "--objective", "weighted"])
        slow = runner.invoke(
            cli_main,
            ["solve", path, "--objective", "weighted", "--solver", "baseline"],
        )
        assert fast.exit_code == slow.exit_code == 0
        assert parse_assignment(fast.output)[1] == parse_assignment(slow.output)[1]

    @pytest.mark.parametrize("objective", ["unweighted", "convex"])
    def test_unit_objectives_give_the_default_cost(self, runner, tmp_path, objective):
        inst_path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        sol_path = str(tmp_path / "out.sol")
        result = runner.invoke(cli_main, ["solve", inst_path, "--objective", objective, "-o", sol_path])
        assert result.exit_code == 0, result.output
        assert parse_assignment(open(sol_path).read())[1] == 6
        check = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert (check.exit_code, check.output) == (0, "OK cost 6\n")

    def test_baseline_on_a_cover_file_exits_2(self, runner, tmp_path):
        path = write(tmp_path / "g.cov", COVER_FILE)
        result = runner.invoke(cli_main, ["solve", path, "--solver", "baseline"])
        assert (result.exit_code, result.output) == (
            2, "error: --solver baseline only applies to --objective weighted\n"
        )

    @pytest.mark.parametrize("args, message", [
        (["--objective", "cover"], "--objective cover needs a cover file"),
        (["--objective", "unweighted", "--solver", "baseline"],
         "--solver baseline only applies to --objective weighted"),
    ])
    def test_usage_errors_exit_2(self, runner, tmp_path, args, message):
        path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        result = runner.invoke(cli_main, ["solve", path, *args])
        assert (result.exit_code, result.output) == (2, f"error: {message}\n")


def overflowing_files(tmp_path):
    """An instance and a solution whose cost overflows: 93 000 jobs of
    weight 2^31-1 on one machine cost about (2^31-1) * 93 000^2 / 2 > 2^63-1."""
    jobs, w = 93_000, 2**31 - 1
    inst_path = write(
        tmp_path / "big.sm",
        f"p semimatch {jobs} 1 {jobs}\n" + "".join(f"e {u} 1 {w}\n" for u in range(1, jobs + 1)),
    )
    sol_path = write(
        tmp_path / "big.sol", "".join(f"a {u} 1\n" for u in range(1, jobs + 1)) + "cost 0\n"
    )
    return inst_path, sol_path


#: Solutions of SEMIMATCH_FILE that verify rejects, and the violation named.
VERIFY_FAILURES = {
    "non-edge": ("a 1 2\na 2 1\na 3 2\na 4 2\ncost 6\n", "(1, 2) is not an edge"),
    "machine out of range": (
        "a 1 1\na 2 7\na 3 2\na 4 2\ncost 6\n", "machine id 7 not in the instance"
    ),
    "too few jobs": ("a 1 1\na 2 1\ncost 3\n", "jobs without an assignment: [3, 4]"),
    "too many jobs": ("a 1 1\na 2 1\na 3 2\na 4 2\na 5 1\ncost 6\n", "job id 5 not in the instance"),
    "job twice": ("a 1 1\na 1 1\na 2 1\na 3 2\na 4 2\ncost 6\n", "job 1 assigned twice"),
}


class TestCliVerify:
    def test_tampered_cost(self, runner, tmp_path):
        inst_path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        sol_path = write(
            tmp_path / "lie.sol", "a 1 1\na 2 1\na 3 2\na 4 2\ncost 5\n"
        )
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert result.exit_code == 4

    def test_non_edge_assignment(self, runner, tmp_path):
        inst_path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        sol_path = write(
            tmp_path / "bad.sol", "a 1 2\na 2 1\na 3 2\na 4 2\ncost 6\n"
        )
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert result.exit_code == 4

    def test_missing_job(self, runner, tmp_path):
        inst_path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        sol_path = write(tmp_path / "short.sol", "a 1 1\na 2 1\ncost 3\n")
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert result.exit_code == 4

    def test_cover_solution(self, runner, tmp_path):
        inst_path = write(tmp_path / "g.cov", COVER_FILE)
        good = write(tmp_path / "good.sol", "a 1 2\na 2 3\ncost 5\n")
        result = runner.invoke(cli_main, ["verify", inst_path, good])
        assert result.exit_code == 0, result.output
        leaves_one_out = write(tmp_path / "gap.sol", "a 1 2\ncost 3\n")
        result = runner.invoke(cli_main, ["verify", inst_path, leaves_one_out])
        assert (result.exit_code, result.output) == (4, "error: vertex 3 is uncovered\n")

    def test_cover_non_edge_is_named(self, runner, tmp_path):
        inst_path = write(tmp_path / "g.cov", COVER_FILE)
        sol_path = write(tmp_path / "bad.sol", "a 1 3\na 2 3\ncost 5\n")
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert (result.exit_code, result.output) == (4, "error: (1, 3) is not a graph edge\n")

    @pytest.mark.parametrize("twice", ["a 1 2\na 2 1\n", "a 2 1\na 2 1\n"])
    def test_cover_edge_listed_twice(self, runner, tmp_path, twice):
        # Without the repeat this is the optimal cover, of cost 5.
        inst_path = write(tmp_path / "g.cov", COVER_FILE)
        sol_path = write(tmp_path / "twice.sol", twice + "a 2 3\ncost 5\n")
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert result.exit_code == 4, result.output
        assert "cover edge (1, 2) listed twice" in result.output

    def test_cost_overflow(self, runner, tmp_path):
        inst_path, sol_path = overflowing_files(tmp_path)
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert result.exit_code == 5, result.output
        assert "64-bit" in result.output

    @pytest.mark.parametrize("weights", ["unit", "weighted"])
    @pytest.mark.parametrize("case", sorted(VERIFY_FAILURES))
    def test_failures_are_named(self, runner, tmp_path, weights, case):
        # The cost checks adjacency; only a failure is validated again, to
        # name it.
        instance = SEMIMATCH_FILE if weights == "unit" else SEMIMATCH_FILE.replace("4 2 1", "4 2 3")
        solution, message = VERIFY_FAILURES[case]
        inst_path = write(tmp_path / "inst.sm", instance)
        sol_path = write(tmp_path / "bad.sol", solution)
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert (result.exit_code, result.output) == (4, f"error: {message}\n")

    def test_cost_overflow_is_named(self, runner, tmp_path):
        result = runner.invoke(cli_main, ["verify", *overflowing_files(tmp_path)])
        assert (result.exit_code, result.output) == (5, "error: machine cost exceeds 64-bit range\n")

    def test_malformed_solution_is_a_parse_failure(self, runner, tmp_path):
        inst_path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        sol_path = write(tmp_path / "junk.sol", "nonsense\n")
        result = runner.invoke(cli_main, ["verify", inst_path, sol_path])
        assert result.exit_code == 2


class TestCliGen:
    def test_deterministic(self, runner):
        args = ["gen", "--jobs", "6", "--machines", "3", "--seed", "42"]
        a = runner.invoke(cli_main, args)
        b = runner.invoke(cli_main, args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output
        parse_instance(a.output)  # emitted text is a valid instance

    def test_seed_changes_output(self, runner):
        a = runner.invoke(cli_main, ["gen", "--jobs", "20", "--seed", "1"])
        b = runner.invoke(cli_main, ["gen", "--jobs", "20", "--seed", "2"])
        assert a.output != b.output

    def test_cover_kind(self, runner, tmp_path):
        out = str(tmp_path / "g.cov")
        result = runner.invoke(
            cli_main,
            ["gen", "--kind", "cover", "--vertices", "8", "--seed", "5", "-o", out],
        )
        assert result.exit_code == 0
        g = parse_instance(open(out).read())
        assert isinstance(g, GeneralGraph)
        assert g.num_vertices == 8

    def test_bad_parameters(self, runner):
        result = runner.invoke(
            cli_main, ["gen", "--edge-prob", "1.5", "--seed", "0"]
        )
        assert result.exit_code == 2

    def test_seed_required(self, runner):
        result = runner.invoke(cli_main, ["gen"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args, bounds",
        [
            (["gen", "--seed", "1", "--max-weight", "0"], "[1, 0]"),
            (["gen", "--seed", "1", "--max-weight", "99999999999"], "[1, 99999999999]"),
            (["bench", "--kind", "weighted", "--max-weight", "0", "--seeds", "1"], "[1, 0]"),
        ],
    )
    def test_weight_range_named_before_any_draw(self, runner, args, bounds):
        result = runner.invoke(cli_main, args)
        message = f"error: weights {bounds} empty or outside [0, {MAX_WEIGHT}]\n"
        assert (result.exit_code, result.output) == (2, message)


class TestCliRoundTrip:
    @pytest.mark.parametrize(
        "gen_args",
        [
            ["--jobs", "40", "--machines", "8", "--max-weight", "1"],
            ["--jobs", "40", "--machines", "8", "--max-weight", "50"],
            ["--kind", "cover", "--vertices", "30", "--edge-prob", "0.1"],
        ],
        ids=["unit", "weighted", "cover"],
    )
    def test_gen_solve_verify(self, runner, tmp_path, gen_args):
        inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
        made = runner.invoke(cli_main, ["gen", *gen_args, "--seed", "3", "-o", inst])
        assert made.exit_code == 0, made.output
        solved = runner.invoke(cli_main, ["solve", inst, "-o", sol])
        assert solved.exit_code == 0, solved.output
        _pairs, cost = parse_assignment(open(sol).read())
        checked = runner.invoke(cli_main, ["verify", inst, sol])
        assert checked.exit_code == 0, checked.output
        assert checked.output == f"OK cost {cost}\n"


def just_past_the_assignment_limit():
    """Two unit jobs on 101 and 9901 machines: 1 000 001 assignments."""
    return BipartiteInstance(2, 9901, [(0, v, 1) for v in range(101)]
                             + [(1, v, 1) for v in range(9901)])


def cycle_graph(n):
    return GeneralGraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestCliBenchAndOracle:
    def test_bench_writes_csv(self, runner, tmp_path):
        out = str(tmp_path / "bench.csv")
        result = runner.invoke(
            cli_main,
            [
                "bench", "--kind", "weighted", "--jobs", "8", "--machines", "4",
                "--max-weight", "9", "--seeds", "2", "-o", out,
            ],
        )
        assert result.exit_code == 0, result.output
        lines = open(out).read().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2  # 2 seeds x (weighted, baseline)

    def test_unit_bench_default_solvers(self, runner):
        result = runner.invoke(
            cli_main,
            ["bench", "--kind", "unit", "--jobs", "10", "--machines", "4",
             "--seeds", "1"],
        )
        assert result.exit_code == 0, result.output
        rows = result.output.strip().split("\n")[1:]
        assert {r.split(",")[6] for r in rows} == {"unweighted", "convex"}

    def test_bench_cost_disagreement_exits_4(self, runner, monkeypatch):
        monkeypatch.setitem(bench_mod.SOLVER_NAMES, "baseline", lambda inst: (10**9, {}))
        result = runner.invoke(
            cli_main,
            ["bench", "--kind", "weighted", "--jobs", "6", "--machines", "3", "--seeds", "1"],
        )
        assert result.exit_code == 4
        assert result.output.startswith("error: cost mismatch on ")
        assert "baseline -> 1000000000" in result.output

    def test_oracle_agrees_with_solve(self, runner, tmp_path):
        path = write(tmp_path / "inst.sm", SEMIMATCH_FILE)
        oracle = runner.invoke(cli_main, ["oracle", path])
        solve = runner.invoke(cli_main, ["solve", path])
        assert oracle.exit_code == solve.exit_code == 0
        assert parse_assignment(oracle.output)[1] == parse_assignment(solve.output)[1]

    def test_oracle_on_cover(self, runner, tmp_path):
        path = write(tmp_path / "g.cov", COVER_FILE)
        result = runner.invoke(cli_main, ["oracle", path])
        assert result.exit_code == 0
        assert "cost 5" in result.output

    def test_oracle_rejects_oversized_instance(self, runner, tmp_path):
        big = emit_instance(
            gen_random(random.Random(0), 40, 12, edge_prob=0.9, max_weight=5)
        )
        path = write(tmp_path / "big.sm", big)
        result = runner.invoke(cli_main, ["oracle", path])
        assert result.exit_code == 1

    @pytest.mark.parametrize("name, instance, message", [
        ("big.sm", just_past_the_assignment_limit(), "search space 1000001 exceeds limit 1000000"),
        ("big.cov", cycle_graph(22), "2^22 subsets exceed limit 2097152"),
    ])
    def test_oracle_exits_1_just_past_its_limit(self, runner, tmp_path, name, instance, message):
        path = write(tmp_path / name, emit_instance(instance))
        result = runner.invoke(cli_main, ["oracle", path])
        assert (result.exit_code, result.output) == (1, f"Error: {message}\n")


class TestOracleLimits:
    def test_assignment_sweep_runs_at_its_limit_and_refuses_one_past(self):
        at_limit = BipartiteInstance(6, 10, [(u, v, 1) for u in range(6) for v in range(10)])
        assert ASSIGNMENT_LIMIT == 10**6 == assignment_search_space(at_limit)
        assert brute_force_semi_matching(at_limit)[0] == 6
        with pytest.raises(ValueError, match="^search space 1000001 exceeds limit 1000000$"):
            brute_force_semi_matching(just_past_the_assignment_limit())

    def test_subset_walk_refuses_one_edge_past_its_limit(self):
        # 21 edges would walk all 2^21 subsets; 22 are refused before
        # any is visited.
        assert SUBSET_LIMIT == 1 << 21
        with pytest.raises(ValueError, match="^2\\^22 subsets exceed limit 2097152$"):
            brute_force_balanced_cover(22, cycle_graph(22).edges)
