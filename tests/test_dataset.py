from __future__ import annotations

import ast
import math
import random
import re
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heursched
import heursched.dataset as dataset_module
from heursched import (Dataset, InputError, IterationCostProfile, Observation, Schedule,
                       avg_iteration_cost, breakpoints, collect_shadow_dataset,
                       dump_dataset, dump_schedule, generate_instance, load_dataset,
                       load_schedule, load_sim_config)
from heursched.dataset import DATASET_HEADER, MAX_COUNT, check_row

from conftest import COVERAGE_CFG, PLANTED_CFG, WORKED_CSV, random_dataset


def test_load_small_dataset():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h1,N1,1,1,0.5\n"
            "h1,N2,inf,5,2.0\n"
            "h2,N1,4,4,4.0\n")
    d = load_dataset(text)
    assert d.heuristics == ("h1", "h2")
    assert d.nodes == ("N1", "N2")
    assert len(d.observations) == 3
    assert d.iterations_to_solution("h1", "N1") == 1
    assert d.iterations_to_solution("h1", "N2") is None


def test_load_worked_example():
    d = load_dataset(WORKED_CSV)
    assert len(d.heuristics) == 3
    assert len(d.nodes) == 3
    assert len(d.observations) == 9
    taus = [d.iterations_to_solution(h, n) for h in d.heuristics for n in d.nodes]
    assert taus == [1, None, None, 4, 3, 3, None, 4, 2]


def test_solution_iterations_cannot_exceed_executed():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h1,N1,3,2,1.0\n")
    with pytest.raises(InputError, match="exceeds"):
        load_dataset(text)


def test_duplicate_pair_names_the_pair():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h1,N1,1,1,\n"
            "h1,N1,2,2,\n")
    with pytest.raises(InputError, match=r"\(h1, N1\)"):
        load_dataset(text)


@pytest.mark.parametrize("bad_row,fragment", [
    ("h1,N1,x,2,", "integer"),
    ("h1,N1,1,zero,", "integer"),
    ("h1,N1,1,1,-2.0", "nonnegative"),
    ("h,n,1,1,nan", "finite"),
    ("h,n,1,1,inf", "finite"),
    ("h1,N1,0,1,", "positive"),
    ("h1,N1,1,0,", "positive"),
    ("h1,N1,1,1", "5 fields"),
])
def test_bad_rows_report_line_number(bad_row, fragment):
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            f"{bad_row}\n")
    with pytest.raises(InputError, match="line 2") as excinfo:
        load_dataset(text)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), 0.0, -1.0,
                                  pytest.param(10 ** 400, id="10**400"),
                                  pytest.param(10 ** 5000, id="10**5000")])
def test_iteration_cost_must_be_finite_and_positive(cost):
    with pytest.raises(InputError, match="finite and positive"):
        IterationCostProfile({"h": cost})


@pytest.mark.parametrize("item", [("h", "N1", 1, 1), {"heuristic": "h"}, None])
def test_non_observation_items_are_rejected(item):
    with pytest.raises(InputError, match="must be Observation records"):
        Dataset(("h",), ("N1",), (item,))
    with pytest.raises(InputError, match="must be Observation records"):
        Dataset.from_observations([Observation("h", "N1", 1, 1), item])


def test_registration_follows_first_appearance():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h2,N3,1,1,\n"
            "h1,N1,inf,2,\n"
            "h2,N1,2,2,\n"
            "h1,N3,inf,2,\n"
            "h3,N2,1,1,\n")
    d = load_dataset(text)
    assert d.heuristics == ("h2", "h1", "h3")
    assert d.nodes == ("N3", "N1", "N2")
    rebuilt = Dataset.from_observations(iter(d.observations))
    assert (rebuilt.heuristics, rebuilt.nodes) == (d.heuristics, d.nodes)
    assert rebuilt.observations == d.observations


def test_header_required_and_comments_ignored():
    with pytest.raises(InputError, match="header"):
        load_dataset("h1,N1,1,1,\n")
    text = ("# a comment\n"
            "\n"
            "heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "# another\n"
            "h1,N1,1,1,\n")
    assert len(load_dataset(text).observations) == 1


@pytest.mark.parametrize("encoding", ["", "inf", "INF", "Inf"])
def test_failure_wire_encodings(encoding):
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            f"h1,N1,{encoding},7,\n")
    d = load_dataset(text)
    assert d.iterations_to_solution("h1", "N1") is None
    assert d.observation("h1", "N1").iterations_executed == 7


def test_iteration_counts_are_bounded_by_2_53():
    big = 2 ** 53
    assert Observation("h", "n", big, big).iterations_executed == big
    for tau, executed, column in ((None, big + 1, "iterations_executed"),
                                  (big + 1, big, "iterations_to_solution"),
                                  (10 ** 5000, 10 ** 5000, "iterations_executed")):
        with pytest.raises(InputError, match=re.escape(f"{column} must be at most 2**53 = {big}")):
            Observation("h", "n", tau, executed)
    with pytest.raises(InputError, match="line 3: iterations_to_solution must be at most"):
        load_dataset(f"{DATASET_HEADER}\nh,n,1,1,\nh,m,{big + 1},{big},\n")


@pytest.mark.parametrize("column", ["iterations_to_solution", "iterations_executed"])
def test_count_text_too_long_for_int_reads_as_too_large(column):
    # int() refuses more than 4,300 digits; the error used to repeat the whole text
    big = "9" * 5000
    row = f"h,m,{big},1," if column == "iterations_to_solution" else f"h,m,1,{big},"
    with pytest.raises(InputError) as excinfo:
        load_dataset(f"{DATASET_HEADER}\nh,n,1,1,\n{row}\n")
    assert str(excinfo.value) == f"line 3: {column} must be at most 2**53 = {2 ** 53}"


def test_round_trip_preserves_observations():
    rng = random.Random(7)
    for _ in range(25):
        d = random_dataset(rng, with_durations=True)
        again = load_dataset(dump_dataset(d))
        assert sorted(again.observations, key=lambda o: (o.heuristic, o.node)) == \
            sorted(d.observations, key=lambda o: (o.heuristic, o.node))


def test_avg_iteration_cost_ratio():
    d = Dataset.from_observations([
        Observation("h", "N1", 10, 10, 5.0),
        Observation("h", "N2", None, 30, 7.0),
    ])
    assert avg_iteration_cost(d)["h"] == pytest.approx(12 / 40)


def test_avg_iteration_cost_fallback_without_durations():
    d = Dataset.from_observations([Observation("h", "N1", 2, 2, None)])
    assert avg_iteration_cost(d)["h"] == 1.0


def test_avg_iteration_cost_warns_on_zero_durations():
    d = Dataset.from_observations([Observation("h", "N1", 2, 2, 0.0)])
    with pytest.warns(UserWarning, match="falling back"):
        assert avg_iteration_cost(d)["h"] == 1.0


def test_avg_iteration_cost_names_an_overflowing_total():
    # each duration is finite; their sum is not
    d = load_dataset(DATASET_HEADER + "\nh1,N1,1,1,1e308\nh1,N2,1,1,1e308\nh2,N1,1,1,1\n")
    with pytest.raises(InputError) as excinfo:
        avg_iteration_cost(d)
    assert str(excinfo.value) == "total duration of heuristic 'h1' overflows the float range"


def test_avg_iteration_cost_names_an_underflowing_average():
    # 1e-323 s over 2**53 + 1 iterations is 0.0 s per iteration in floats
    d = load_dataset(DATASET_HEADER + "\nh1,N1,1,1,5e-324\nh1,N2,1,9007199254740992,5e-324\n")
    with pytest.raises(InputError) as excinfo:
        avg_iteration_cost(d)
    assert str(excinfo.value) == ("durations of heuristic 'h1' total 1e-323 s over "
                                  "9007199254740993 iterations: the average seconds per "
                                  "iteration underflows to 0")
    # one iteration fewer keeps the smallest positive average
    d = load_dataset(DATASET_HEADER + "\nh1,N1,1,1,5e-324\nh1,N2,1,2,5e-324\n")
    assert avg_iteration_cost(d)["h1"] > 0


def test_avg_iteration_cost_preserves_asymmetry():
    d = Dataset.from_observations([
        Observation("cheap", "N1", 10, 10, 1.0),   # 0.1 s/iteration
        Observation("pricey", "N1", 10, 10, 20.0),  # 2.0 s/iteration
    ])
    profile = avg_iteration_cost(d)
    assert profile["pricey"] / profile["cheap"] == pytest.approx(20.0)


def test_avg_iteration_cost_invariant_under_reordering():
    rng = random.Random(11)
    for _ in range(10):
        d = random_dataset(rng, with_durations=True)
        shuffled = list(d.observations)
        rng.shuffle(shuffled)
        d2 = Dataset(d.heuristics, d.nodes, tuple(shuffled))
        assert avg_iteration_cost(d).seconds_per_iteration == \
            avg_iteration_cost(d2).seconds_per_iteration


def test_breakpoints_worked_example(worked):
    assert breakpoints(worked, "h1") == [1]
    assert breakpoints(worked, "h2") == [3, 4]
    assert breakpoints(worked, "h3") == [2, 4]


def test_breakpoints_all_failures_empty():
    d = Dataset.from_observations([Observation("h", "N1", None, 5, None)])
    assert breakpoints(d, "h") == []


def test_breakpoints_unknown_heuristic(worked):
    with pytest.raises(InputError, match="unknown heuristic"):
        breakpoints(worked, "nope")


def test_breakpoints_subset_and_increasing():
    rng = random.Random(13)
    for _ in range(20):
        d = random_dataset(rng)
        for h in d.heuristics:
            bps = breakpoints(d, h)
            observed = {o.iterations_to_solution for o in d.observations
                        if o.heuristic == h and o.succeeded}
            assert set(bps) <= observed
            assert all(a < b for a, b in zip(bps, bps[1:]))


def test_dataset_rejects_unregistered_references():
    with pytest.raises(InputError, match="unregistered"):
        Dataset(("h",), ("N1",), (Observation("h", "N2", 1, 1),))


def test_dataset_does_not_share_the_callers_list():
    observations = [Observation("h", "N1", 1, 1)]
    heuristics, nodes = ["h"], ["N1", "N2"]
    d = Dataset(heuristics, nodes, observations)
    observations.append(Observation("h", "N2", 2, 2))
    heuristics.append("g")
    nodes.append("N3")
    assert (d.heuristics, d.nodes) == (("h",), ("N1", "N2"))
    assert d.observations == (Observation("h", "N1", 1, 1),)
    assert dump_dataset(d) == DATASET_HEADER + "\nh,N1,1,1,\n"
    assert dict(d.tau_column("h")) == {"N1": 1}


def test_dataset_built_from_lists_is_hashable():
    d = Dataset(["h"], ["N1"], [Observation("h", "N1", 1, 1)])
    assert hash(d) == hash(Dataset(("h",), ("N1",), (Observation("h", "N1", 1, 1),)))


def test_dataset_built_from_generators_keeps_its_observations():
    expected = (Observation("h", "N1", 1, 1), Observation("h", "N2", None, 3))
    d = Dataset((h for h in ("h",)), (n for n in ("N1", "N2")), (o for o in expected))
    assert (d.heuristics, d.nodes, d.observations) == (("h",), ("N1", "N2"), expected)
    assert dict(d.tau_column("h")) == {"N1": 1}
    assert load_dataset(dump_dataset(d)) == d


@pytest.mark.parametrize("heuristics, nodes, message", [
    (("h", "bad,h"), ("N1",), "invalid heuristic identifier 'bad,h': commas, newlines "
                               "and a leading '#' are reserved"),
    (("h", " g"), ("N1",), "invalid heuristic identifier ' g': leading and trailing "
                           "whitespace would be stripped"),
    (("h",), ("N1", ""), "node identifier must be a non-empty string, got ''"),
    (("h",), ("N1", 7), "node identifier must be a non-empty string, got 7"),
    (("h",), ("N1", "a\u2028b"), "invalid node identifier 'a\\u2028b': line breaks are reserved"),
], ids=["comma", "whitespace", "empty", "not-a-string", "line-break"])
def test_dataset_validates_every_registered_id(heuristics, nodes, message):
    # the bad id is registered but used by no observation
    with pytest.raises(InputError) as excinfo:
        Dataset(heuristics, nodes, (Observation("h", "N1", 1, 1),))
    assert str(excinfo.value) == message


def test_only_dataset_reads_its_columns():
    # the columns, node numbers and breakpoints are built in dataset.py alone;
    # the trusted constructor serves dataset.py and shadow collection only, and
    # the count limit is read by check_row and its batch form alone, which
    # serves the loader only: a simulated instance is checked when it is built
    private = {"_taus", "_executed", "_durations", "_order", "_numbers", "_breakpoints"}
    trusted = {"_from_columns"}
    package = Path(heursched.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        attrs = {node.attr for node in tree if isinstance(node, ast.Attribute)}
        names = attrs | {node.id for node in tree if isinstance(node, ast.Name)} | {
            node.name for node in tree if isinstance(node, ast.alias)}
        if path.name != "dataset.py":
            assert not attrs & private, f"{path.name} reads {sorted(attrs & private)}"
            assert "MAX_COUNT" not in names, f"{path.name} names MAX_COUNT"
            assert "_rows_clear" not in names, f"{path.name} names _rows_clear"
        if path.name not in ("dataset.py", "simulator.py"):
            assert not attrs & trusted, f"{path.name} calls {sorted(attrs & trusted)}"
    assert not hasattr(dataset_module, "_clear_ids")


@st.composite
def shuffled_datasets(draw):
    """Up to 5 heuristics x 8 nodes; pairs unobserved, failed or solved.

    Durations may be missing or zero, and registration order, node order
    and row order are independent permutations.
    """
    n_heuristics = draw(st.integers(1, 5))
    n_nodes = draw(st.integers(1, 8))
    observations = []
    for h in range(n_heuristics):
        for n in range(n_nodes):
            outcome = draw(st.sampled_from(("unobserved", "failed", "solved")))
            if outcome == "unobserved":
                continue
            executed = draw(st.integers(1, 6))
            tau = None if outcome == "failed" else draw(st.integers(1, executed))
            duration = draw(st.none() | st.just(0.0) | st.floats(0.001, 100.0))
            observations.append(Observation(f"h{h}", f"n{n}", tau, executed, duration))
    heuristics = draw(st.permutations([f"h{h}" for h in range(n_heuristics)]))
    nodes = draw(st.permutations([f"n{n}" for n in range(n_nodes)]))
    return Dataset(tuple(heuristics), tuple(nodes), tuple(draw(st.permutations(observations))))


@settings(max_examples=200)
@given(d=shuffled_datasets())
def test_indexed_columns_match_a_scan_of_the_observations(d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero durations warn and fall back
        costs = avg_iteration_cost(d).seconds_per_iteration
    for h in d.heuristics:
        rows = [o for o in d.observations if o.heuristic == h]
        solved = {o.node: o.iterations_to_solution for o in rows if o.succeeded}
        assert breakpoints(d, h) == sorted(set(solved.values()))
        assert dict(d.tau_column(h)) == solved
        with pytest.raises(TypeError):
            d.tau_column(h)["new"] = 1
        assert [d.iterations_to_solution(h, n) for n in d.nodes] == \
            [solved.get(n) for n in d.nodes]
        assert list(d.tau_column(h).taus) == [d.iterations_to_solution(h, n) for n in d.nodes]
        assert d.registration_index(h) == d.heuristics.index(h)
        timed = [o for o in rows if o.duration_seconds is not None]
        seconds = math.fsum(o.duration_seconds for o in timed)
        expected = seconds / sum(o.iterations_executed for o in timed) if seconds > 0 else 1.0
        assert costs[h] == expected


@settings(max_examples=200)
@given(d=shuffled_datasets())
def test_dump_load_round_trip(d):
    d = Dataset.from_observations(d.observations)  # ids registered in row order
    text = dump_dataset(d)
    again = load_dataset(text)
    assert again == d
    assert dump_dataset(again) == text


@settings(max_examples=200)
@given(d=shuffled_datasets())
def test_every_constructor_fills_the_same_columns(d):
    # Dataset(...) registers every id in its own order; from_observations and
    # the loader register the ids of the rows, in row order.  All three read
    # the same rows back.
    text = dump_dataset(d)
    built = Dataset.from_observations(d.observations)
    loaded = load_dataset(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero durations warn and fall back
        costs = avg_iteration_cost(d).seconds_per_iteration
        assert avg_iteration_cost(built) == avg_iteration_cost(loaded)
        assert avg_iteration_cost(built).seconds_per_iteration == \
            {h: costs[h] for h in built.heuristics}
    for other in (built, loaded):
        assert other.observations == d.observations
        assert dump_dataset(other) == text
        for h in other.heuristics:
            assert dict(other.tau_column(h)) == dict(d.tau_column(h))
            assert breakpoints(other, h) == breakpoints(d, h)
            for n in other.nodes:
                assert other.observation(h, n) == d.observation(h, n)
    assert [built.tau_column(h).taus for h in built.heuristics] == \
        [loaded.tau_column(h).taus for h in loaded.heuristics]
    # with the same registration, all three store one wire order of one kind
    direct = Dataset(built.heuristics, built.nodes, d.observations)
    assert direct._order == built._order == loaded._order
    assert type(direct._order) is type(built._order) is type(loaded._order)
    observed = {(o.heuristic, o.node): o for o in d.observations}
    for h in d.heuristics:
        for n in d.nodes:
            assert d.observation(h, n) == observed.get((h, n))


@pytest.fixture(scope="module")
def learn_text():
    """The learn workload's 12 x 2,000 family as dataset CSV: 24,000 rows, 14 chunks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from workloads import family_config
    cfg = load_sim_config(family_config(1, 12, 10, 200, 200))
    return dump_dataset(collect_shadow_dataset(generate_instance(cfg, s) for s in range(10)))


def test_loaded_dataset_holds_at_most_150_bytes_per_row(learn_text):
    # rows used to be kept as tuples of their own id strings beside the tau
    # lists: about 230 bytes held per row here.  The columns hold about 60 on
    # CPython 3.11; 150 leaves room for other versions' object sizes.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = load_dataset(learn_text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(d.heuristics) * len(d.nodes)
    assert rows == 24000
    assert held <= 150 * rows, f"{held / rows:.0f} bytes per row"


def test_loading_peaks_at_most_3_5_mb_at_learn_scale(learn_text):
    # the line reader holds every line as its own str: a 3.99 MB peak here.
    # The chunked parse holds one chunk's fields at a time: 2.7 MB on CPython 3.11.
    tracemalloc.start()
    try:
        load_dataset(learn_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_500_000, f"{peak / 1e6:.2f} MB"


@pytest.fixture
def line_reader(monkeypatch):
    """The line reader, patched out of ``load_dataset`` so that only the chunked
    parse can read a text."""
    read_lines = dataset_module._load_lines

    def refuse(source):
        raise AssertionError("the text was read line by line")

    monkeypatch.setattr(dataset_module, "_load_lines", refuse)
    return read_lines


def test_all_clear_texts_never_reach_the_line_reader(line_reader, learn_text):
    shadow = collect_shadow_dataset(generate_instance(load_sim_config(PLANTED_CFG), seed)
                                    for seed in range(3))
    for text, d in ((dump_dataset(shadow), shadow), (learn_text, line_reader(learn_text))):
        again = load_dataset(text)
        assert again == d
        assert again._order == range(len(again.heuristics) * len(again.nodes))
    with pytest.raises(AssertionError):  # a line-feed text only: \r is stripped
        load_dataset(learn_text.replace("\n", "\r\n"))


def test_a_blank_line_sends_the_text_to_the_line_reader_at_once(monkeypatch, learn_text):
    expected = load_dataset(learn_text)
    monkeypatch.setattr(dataset_module, "_read_chunk", None)  # no chunk may be parsed
    middle = learn_text.index("\n", len(learn_text) // 2) + 1
    for text in (learn_text.replace("\n", "\n\n", 1), learn_text[:middle] + "\n" +
                 learn_text[middle:], learn_text + "\n"):
        assert load_dataset(text) == expected


def test_heuristic_major_rows_load_as_the_line_reader_reads_them(line_reader, learn_text):
    header, *rows = learn_text.splitlines()
    width = 12
    reordered = "\n".join([header] + [rows[r] for h in range(width)
                                      for r in range(h, len(rows), width)]) + "\n"
    expected = line_reader(reordered)
    d = load_dataset(reordered)
    assert d == expected
    assert isinstance(d._order, list) and d._order == expected._order
    assert (d._executed, d._durations) == (expected._executed, expected._durations)
    assert [d.tau_column(h).taus for h in d.heuristics] == \
        [expected.tau_column(h).taus for h in expected.heuristics]


# Each template replaces the first two rows of the second chunk; the fields of
# the first are {heuristic}..{duration}, {row} is all of it, {next} is the
# second row and {first} the first row of the text.
@pytest.mark.parametrize("rows", [
    ",{node},{tau},{executed},{duration}\n{next}",
    "{heuristic},#n,{tau},{executed},{duration}\n{next}",
    "{heuristic},{node},{executed}1,{executed},{duration}\n{next}",
    "{heuristic},{node},{tau},{executed},nan\n{next}",
    "{row}\n{first}",
    "{heuristic},{node},{tau},{executed}\n{next}",
    "{row},{next_heuristic}\n{next_rest}",
    f"{{heuristic}},{{node}},{{tau}},{2 ** 53 + 1},{{duration}}\n{{next}}",
    "{row}\n\n{next}",
    "{row}\n# a comment\n{next}",
], ids=["empty id", "comment mark in id", "tau above executed", "nan duration", "repeated pair",
        "four fields", "six fields then four", "count above 2**53", "blank line",
        "comment line"])
def test_rows_after_the_first_chunk_load_as_the_reference_reads_them(learn_text, rows):
    # 6,000 complete node-major rows, 4 chunks
    lines = learn_text.splitlines()[:6001]
    text = "\n".join(lines) + "\n"
    boundary = text.find("\n", len(DATASET_HEADER) + 1 + dataset_module.CHUNK) + 1
    k = text.count("\n", 0, boundary)  # the first line of the second chunk
    heuristic, node, tau, executed, duration = lines[k].split(",")
    next_heuristic, next_rest = lines[k + 1].split(",", 1)
    lines[k:k + 2] = rows.format(heuristic=heuristic, node=node, tau=tau, executed=executed,
                                 duration=duration, row=lines[k], next=lines[k + 1],
                                 first=lines[1], next_heuristic=next_heuristic,
                                 next_rest=next_rest).split("\n")
    text = "\n".join(lines) + "\n"
    assert len(text) > 2 * dataset_module.CHUNK
    try:
        expected = reference_load_dataset(text)
    except InputError as exc:
        with pytest.raises(InputError) as excinfo:
            load_dataset(text)
        assert str(excinfo.value) == str(exc)
        assert str(exc).startswith(f"line {k + 1}") or str(exc).startswith(f"line {k + 2}")
        return
    assert load_dataset(text).observations == tuple(expected)


def test_dumping_peaks_at_most_3_5_mb_at_learn_scale(learn_text):
    # a str per line and their list peaked at 3.74-3.93 MB here; the flat list
    # of shared texts peaks at about 2.1 MB on CPython 3.11
    d = load_dataset(learn_text)
    tracemalloc.start()
    try:
        text = dump_dataset(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == learn_text
    assert peak <= 3_500_000, f"{peak / 1e6:.2f} MB"


def test_a_heuristic_major_dump_peaks_at_most_2_7_mb_at_learn_scale(learn_text):
    # a list _order: the node-major cells and their gathered copy peaked at
    # 3.11 MB here; one field's node-major texts at a time peak at about 2.24 MB
    # on CPython 3.11
    header, *rows = learn_text.splitlines()
    text = "\n".join([header] + [rows[r] for h in range(12)
                                 for r in range(h, len(rows), 12)]) + "\n"
    d = load_dataset(text)
    assert isinstance(d._order, list)
    tracemalloc.start()
    try:
        dumped = dump_dataset(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dumped == text
    assert peak <= 2_700_000, f"{peak / 1e6:.2f} MB"


# The dataset writer as it was before it wrote from per-column text maps: one
# f-string per row.  Kept as the reference that dump_dataset must match.
def reference_dump_dataset(d):
    heuristics, nodes, executed, durations = d.heuristics, d.nodes, d._executed, d._durations
    taus = [d._taus[heuristic].taus for heuristic in heuristics]
    width = len(heuristics)
    lines = [DATASET_HEADER]
    for pair in d._order:
        number, h = divmod(pair, width)
        tau, duration = taus[h][number], durations[h][number]
        tau = "inf" if tau is None else str(tau)
        duration = "" if duration is None else repr(float(duration))
        lines.append(f"{heuristics[h]},{nodes[number]},{tau},{executed[h][number]},{duration}")
    return "\n".join(lines) + "\n"


@st.composite
def writer_datasets(draw):
    """Up to 4 heuristics x 6 nodes, complete or not, with rows node-major,
    heuristic-major or shuffled; counts up to 2**53, durations missing, signed
    zeros, ints or floats."""
    n_heuristics, n_nodes = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    outcomes = ("failed", "solved") if draw(st.booleans()) else ("unobserved", "failed", "solved")
    counts = st.integers(1, 4) | st.just(2 ** 53) | st.integers(1, 2 ** 53)
    durations = (st.none() | st.sampled_from((0.0, -0.0, 0, 3, 2 ** 53))
                 | st.floats(0.0, 1e300, allow_nan=False) | st.floats(0.0, 1e-300))
    observations = []
    for h in range(n_heuristics):
        for n in range(n_nodes):
            outcome = draw(st.sampled_from(outcomes))
            if outcome != "unobserved":
                executed = draw(counts)
                tau = None if outcome == "failed" else draw(st.integers(1, executed))
                observations.append(Observation(f"h{h}", f"n{n}", tau, executed,
                                                 draw(durations)))
    order = draw(st.sampled_from(("node-major", "heuristic-major", "shuffled")))
    if order == "node-major":
        observations.sort(key=lambda o: int(o.node[1:]))
    elif order == "shuffled":
        observations = draw(st.permutations(observations))
    return Dataset.from_observations(observations)


_ZEROS = [Observation("h", "n1", 1, 1, 0.0), Observation("h", "n2", None, 2, -0.0),
          Observation("h", "n3", 1, 3, 0), Observation("h", "n4", 2, 2, None),
          Observation("g", "n1", 2 ** 53, 2 ** 53, 0.5), Observation("g", "n3", None, 1, -0.0)]


@settings(max_examples=300, derandomize=True)
@given(d=writer_datasets())
@example(d=Dataset.from_observations(_ZEROS))
@example(d=Dataset.from_observations(_ZEROS[::-1]))
@example(d=Dataset(("h",), ("n",), ()))
def test_dump_matches_the_per_row_writer(d):
    # every constructor stores the wire order as a range exactly when it equals
    # one; heuristic-major and shuffled rows keep a list, which the writer gathers
    loaded = load_dataset(reference_dump_dataset(d))
    for each in (d, loaded):
        assert dump_dataset(each) == reference_dump_dataset(each)
        assert list(each._order) == list(d._order)
        assert isinstance(each._order, range) == (list(each._order) ==
                                                  list(range(len(each._order))))


def test_all_clear_ids_are_refused_only_when_empty():
    # _read_chunk tests the ids of an all-clear text for emptiness alone: no
    # comma, line feed or character of _UNCLEAR, and ASCII only
    ascii_chars = [chr(code) for code in range(128)]
    pairs = (a + b for a in ascii_chars for b in ascii_chars)
    checked = 0
    for value in ("", *ascii_chars, *pairs):
        if dataset_module._clear(value) and "," not in value and "\n" not in value:
            try:
                dataset_module.validate_identifier(value, "node")
                accepted = True
            except InputError:
                accepted = False
            assert accepted == (value != ""), repr(value)
            checked += 1
    assert checked > 10000


@settings(max_examples=30)
@given(config=st.sampled_from((PLANTED_CFG, COVERAGE_CFG)), seed=st.integers(0, 10**6),
       instances=st.integers(1, 3))
def test_shadow_dataset_dump_load_round_trip(config, seed, instances):
    cfg = load_sim_config(config)
    d = collect_shadow_dataset(generate_instance(cfg, seed + i) for i in range(instances))
    text = dump_dataset(d)
    again = load_dataset(text)
    assert again == d
    assert dump_dataset(again) == text


# The dataset loader as it was before it filled the columns directly: every
# row became a validated Observation, re-indexed by Dataset.  Kept as the
# reference that the columnar loader must match, error texts included.
def reference_read_rows(source, header, what):
    width = header.count(",") + 1
    header_found = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_found:
            if line != header:
                raise InputError(f"line {lineno}: expected header {header!r}, got {line!r}")
            header_found = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise InputError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, fields
    if not header_found:
        raise InputError(f"{what} is missing its header line")


def reference_count(value, what):
    if not isinstance(value, int) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")
    if value > 2 ** 53:
        raise InputError(f"{what} must be at most 2**53 = {2 ** 53}")


def reference_observation(heuristic, node, tau, executed, duration):
    for value, what in ((heuristic, "heuristic"), (node, "node")):
        if not isinstance(value, str) or not value:
            raise InputError(f"{what} identifier must be a non-empty string, got {value!r}")
        if "," in value or "\n" in value or "\r" in value or value.startswith("#"):
            raise InputError(f"invalid {what} identifier {value!r}: "
                             "commas, newlines and a leading '#' are reserved")
    reference_count(executed, "iterations_executed")
    if tau is not None:
        reference_count(tau, "iterations_to_solution")
        if tau > executed:
            raise InputError(f"iterations_to_solution ({tau}) exceeds iterations_executed "
                             f"({executed}) for ({heuristic}, {node})")
    if duration is not None and not (math.isfinite(duration) and duration >= 0):
        raise InputError(f"duration_seconds must be finite and nonnegative, got {duration!r}")
    return Observation(heuristic, node, tau, executed, duration)


def reference_positive_int(text, lineno, column):
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"line {lineno}: {column} must be an integer, got {text!r}") from None
    if value < 1:
        raise InputError(f"line {lineno}: {column} must be positive, got {value}")
    return value


def reference_load_dataset(source):
    observations = []
    seen = set()
    for lineno, fields in reference_read_rows(source, DATASET_HEADER, "dataset"):
        heuristic, node, tau_text, executed_text, duration_text = fields
        if tau_text == "" or tau_text.lower() == "inf":
            tau = None
        else:
            tau = reference_positive_int(tau_text, lineno, "iterations_to_solution")
        executed = reference_positive_int(executed_text, lineno, "iterations_executed")
        if duration_text == "":
            duration = None
        else:
            try:
                duration = float(duration_text)
            except ValueError:
                raise InputError(
                    f"line {lineno}: duration_seconds must be a number, got {duration_text!r}"
                ) from None
        try:
            obs = reference_observation(heuristic, node, tau, executed, duration)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        if (heuristic, node) in seen:
            raise InputError(f"line {lineno}: duplicate row for pair ({heuristic}, {node})")
        seen.add((heuristic, node))
        observations.append(obs)
    return observations


_FIELDS = (
    st.sampled_from(("h1", "h2", "h3", " h1 ", "")),
    st.sampled_from(("n1", "n2", "n3", "n4", "n2 ", "", "#n")),
    st.sampled_from(("", "inf", "INF", "1", "2", "3", "4", "0", "-1", "x", "1.5", " 2")),
    st.sampled_from(("1", "2", "3", "4", "0", "-2", "y", "1e3")),
    st.sampled_from(("", "0", "0.0", "0.5", "1e3", "-1", "-0.0", "nan", "inf", "-inf", "abc")),
)


@st.composite
def dataset_texts(draw):
    """Dataset CSV texts, mostly valid, with malformed rows mixed in.

    Valid rows use each (heuristic, node) pair once; the malformed lines may
    carry a bad id on a later row, tau > executed, NaN or infinite
    durations, a repeated pair, a wrong field count, or a bad header.
    """
    pairs = draw(st.lists(st.tuples(st.sampled_from(("h1", "h2", "h3")),
                                    st.sampled_from(("n1", "n2", "n3", "n4"))),
                          max_size=10, unique=True))
    lines = []
    for heuristic, node in pairs:
        executed = draw(st.integers(1, 5))
        tau = draw(st.sampled_from(("inf", "", "Inf", str(draw(st.integers(1, executed))))))
        duration = draw(st.sampled_from(("", "0.0", repr(0.25 * executed), "3")))
        lines.append(f"{heuristic},{node},{tau},{executed},{duration}")
    near_valid = st.tuples(st.sampled_from(("h1", "h2", "")),
                           st.sampled_from(("n1", "n3", "", "#n")),
                           st.integers(1, 6).map(str), st.integers(1, 5).map(str),
                           st.sampled_from(("", "0.5", "nan", "inf", "-inf", "-1")))
    for _ in range(draw(st.integers(0, 3))):
        bad = draw(st.one_of(
            st.tuples(*_FIELDS).map(",".join),
            near_valid.map(",".join),
            st.sampled_from(lines or ["h1,n1,1,1,"]),
            st.lists(st.sampled_from(("h1", "n1", "1", "")), max_size=7).map(",".join),
            st.sampled_from(("", "# comment", "  ", DATASET_HEADER))))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    header = draw(st.sampled_from((DATASET_HEADER,) * 12 + (
        f"  {DATASET_HEADER}", "# note\n" + DATASET_HEADER, "heuristic,node", "")))
    return "\n".join([header] + lines) + draw(st.sampled_from(("\n", "", "\r\n")))


_ROWS = DATASET_HEADER + "\n{}\n"


@settings(max_examples=300)
@given(text=dataset_texts())
# "" is a failed call as a tau, but not a valid iterations_executed
@example(text=_ROWS.format("h1,n1,,3,\nh1,n2,2,,"))
@example(text=_ROWS.format("h1,n1,,3,\nh2,n1,inf,,0.5"))
# cached count texts that give tau > executed
@example(text=_ROWS.format("h1,n1,3,3,\nh1,n2,2,2,\nh2,n1,3,2,"))
# a cached count text next to a bad node id, and next to a repeated pair
@example(text=_ROWS.format("h1,n1,2,2,\nh1,#n,2,2,"))
@example(text=_ROWS.format("h1,n1,2,2,\nh1,n1,2,2,"))
# counts of 2**53 are cached and accepted; 2**53 + 1 is rejected on any row,
# after a bad id on its line
@example(text=_ROWS.format(f"h1,n1,{2 ** 53},{2 ** 53},\nh1,n2,{2 ** 53},{2 ** 53},"))
@example(text=_ROWS.format(f"h1,n1,1,{2 ** 53 + 1},\nh1,n2,1,{2 ** 53 + 1},"))
@example(text=_ROWS.format(f"h1,n1,1,1,\nh1,#n,{2 ** 53 + 1},{2 ** 53 + 1},"))
@example(text=_ROWS.format(f"h1,n1,{2 ** 53 + 1},2,\nh1,n2,{2 ** 53 + 1},2,"))
# complete rows whose heuristics, or whose nodes, are in node-major order
# while the other ids are not
@example(text=_ROWS.format("h1,n1,1,1,\nh2,n2,2,2,\nh1,n2,3,3,\nh2,n1,4,4,"))
@example(text=_ROWS.format("h1,n1,1,1,\nh2,n1,2,2,\nh2,n2,3,3,\nh1,n2,4,4,"))
def test_loader_matches_the_reference_loader(text):
    try:
        expected = reference_load_dataset(text)
    except InputError as exc:
        with pytest.raises(InputError) as excinfo:
            load_dataset(text)
        assert str(excinfo.value) == str(exc)
        return
    d = load_dataset(text)
    assert d.heuristics == tuple(dict.fromkeys(o.heuristic for o in expected))
    assert d.nodes == tuple(dict.fromkeys(o.node for o in expected))
    assert d.observations == tuple(expected)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero durations warn and fall back
        costs = avg_iteration_cost(d).seconds_per_iteration
    for h in d.heuristics:
        rows = [o for o in expected if o.heuristic == h]
        assert dict(d.tau_column(h)) == {o.node: o.iterations_to_solution
                                         for o in rows if o.succeeded}
        timed = [o for o in rows if o.duration_seconds is not None]
        seconds = math.fsum(o.duration_seconds for o in timed)
        assert costs[h] == (seconds / sum(o.iterations_executed for o in timed)
                            if seconds > 0 else 1.0)


@pytest.mark.parametrize("value, reason", [
    ("a,b", "commas, newlines and a leading '#' are reserved"),
    ("a\nb", "commas, newlines and a leading '#' are reserved"),
    ("a\rb", "commas, newlines and a leading '#' are reserved"),
    ("#a", "commas, newlines and a leading '#' are reserved"),
    ("a\u2028b", "line breaks are reserved"),
    ("a\x0cb", "line breaks are reserved"),
    (" a", "leading and trailing whitespace would be stripped"),
    ("a\t", "leading and trailing whitespace would be stripped"),
])
def test_identifiers_the_wire_formats_cannot_carry_are_rejected(value, reason):
    with pytest.raises(InputError) as excinfo:
        Observation("h", value, 1, 1)
    assert str(excinfo.value) == f"invalid node identifier {value!r}: {reason}"


# Every character str.splitlines breaks at, whitespace str.strip removes, and
# the characters the wire formats reserve outright.
_ID_CHARACTERS = st.one_of(
    st.sampled_from(list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 \t\xa0\u3000,#")),
    st.sampled_from("ab1_[]."), st.characters())


@settings(max_examples=400)
@given(value=st.text(_ID_CHARACTERS, max_size=5))
def test_accepted_identifiers_round_trip_through_the_wire_formats(value):
    try:
        d = Dataset.from_observations([Observation(value, "n", 1, 2, 0.5),
                                       Observation("h", value, None, 3)])
    except InputError:
        for build in (lambda: Observation("h", value, 1, 1),
                      lambda: Schedule(((value, 1),))):
            with pytest.raises(InputError):
                build()
        return
    assert load_dataset(dump_dataset(d)) == d
    s = Schedule(((value, 2), ("h" if value != "h" else "g", 1)))
    assert load_schedule(dump_schedule(s)) == s


@pytest.mark.parametrize("make, message", [
    (lambda: load_dataset("# only a comment\n\n"), "dataset is missing its header line"),
    (lambda: Dataset(("h",), ("n",), (Observation("g", "n", 1, 1),)),
     "observation references unregistered heuristic 'g'"),
    (lambda: Dataset(("h",), ("n",), (Observation("h", "n", 1, 1),) * 2),
     "duplicate observation for pair (h, n)"),
    (lambda: Dataset(("h", "h"), ("n",), ()), "duplicate heuristic registration"),
    (lambda: Dataset(("h",), ("n", "n"), ()), "duplicate node registration"),
    (lambda: IterationCostProfile({"h": 1.0})["g"], "no iteration cost recorded for heuristic 'g'"),
    (lambda: load_dataset(DATASET_HEADER + "\nh,n,1,1,soon\n"),
     "line 2: duration_seconds must be a number, got 'soon'"),
    (lambda: Observation("h", "n", None, True), "iterations_executed must be a positive integer, "
                                                "got True"),
    (lambda: Observation("h", "n", True, 1), "iterations_to_solution must be a positive integer, "
                                             "got True"),
    (lambda: Observation("h", "n", 1, 1, "5"), "duration_seconds must be a number, got '5'"),
    (lambda: Observation("h", "n", 1, 1, True), "duration_seconds must be a number, got True"),
    (lambda: Dataset.from_observations([Observation("h", "n", None, 2, False)]),
     "duration_seconds must be a number, got False"),
    (lambda: Observation("h", "n", 1, 1, 10 ** 400),
     "duration_seconds must be finite and nonnegative, got an int beyond the float range"),
    (lambda: Observation("h", "n", 1, 1, -10 ** 5000),
     "duration_seconds must be finite and nonnegative, got an int beyond the float range"),
    (lambda: IterationCostProfile({"h": 10 ** 5000}),
     "iteration cost for 'h' must be finite and positive, got an int beyond the float range"),
], ids=["no header", "unregistered heuristic", "repeated observation", "repeated heuristic",
        "repeated node", "missing cost", "non-numeric duration", "bool executed", "bool tau",
        "str duration", "bool duration", "bool zero duration", "int duration beyond floats",
        "negative int duration beyond floats", "int cost beyond floats"])
def test_dataset_rejections(make, message):
    with pytest.raises(InputError) as excinfo:
        make()
    assert str(excinfo.value) == message


# The values both callers of the batch row rule can pass: the chunk reader's
# parsed ints, floats and None, and whatever a hand-given shadow instance holds
# as a count; with the edges of check_row's rule.
_COUNTS = (st.integers(1, 6) | st.integers(1, 6)
           | st.sampled_from((0, -1, MAX_COUNT, MAX_COUNT + 1, 10 ** 400, True, False, 2.0,
                              None, "3")))
_DURATIONS = (st.none() | st.floats(0.0, 10.0) | st.floats()
              | st.sampled_from((0.0, -0.0, 0, 3, 1e308, True, False, 10 ** 400, -10 ** 400,
                                 "1.5")))


@settings(max_examples=600, derandomize=True)
@given(rows=st.lists(st.tuples(st.none() | _COUNTS, _COUNTS, _DURATIONS), max_size=5),
       more_durations=st.lists(_DURATIONS, max_size=2))
@example(rows=[(1, 1, 0.5), (True, 1, 0.5)], more_durations=[])
@example(rows=[(1, 1, 0.5), (1, True, 0.5)], more_durations=[])
@example(rows=[(None, 2, 1.0), (None, 2, True)], more_durations=[])
@example(rows=[(None, 2, 8e307), (None, 3, 8e307)], more_durations=[])
def test_the_batch_row_rule_accepts_only_rows_check_row_accepts(rows, more_durations):
    # its contract: each count, each (tau, count) pair and each duration is one
    # check_row accepts, and so is every row made of them, with a duration of None too
    taus, executed, durations = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    durations += more_durations
    if dataset_module._rows_clear(taus, executed, durations):
        for tau, count in zip(taus, executed):
            for duration in [*durations, None]:
                for row_tau in (tau, None, count):
                    check_row("h", "n", row_tau, count, duration)


_VALID_ROWS = st.integers(1, MAX_COUNT).flatmap(
    lambda count: st.tuples(st.none() | st.integers(1, count), st.just(count),
                            st.none() | st.just(-0.0) | st.floats(0.0, 1e300)))


@settings(max_examples=300, derandomize=True)
@given(rows=st.lists(st.integers(1, 6).flatmap(
    lambda count: st.tuples(st.none() | st.integers(1, count), st.just(count),
                            st.none() | st.floats(0.0, 1e3))) | _VALID_ROWS, max_size=8))
@example(rows=[(1, 2, 1e308), (None, 2, -0.0), (2, MAX_COUNT, 0.0)])
def test_the_batch_row_rule_accepts_rows_check_row_accepts(rows):
    # machine-written data takes the fast paths: rows check_row accepts, with float
    # durations whose sum is finite, pass the batch form, and so do their distinct
    # values as the chunk reader passes them
    for row in rows:
        check_row("h", "n", *row)
    taus, executed = [tau for tau, _, _ in rows], [count for _, count, _ in rows]
    timed = [duration for _, _, duration in rows if duration is not None]
    assert math.isfinite(sum(timed))
    assert dataset_module._rows_clear(taus, executed, timed)
    if rows:
        assert dataset_module._rows_clear(*zip(*set(zip(taus, executed))), set(timed))
