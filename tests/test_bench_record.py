"""scripts/bench_record.py's summary of recorded pairs, on synthetic pairs,
and its line count, on temporary trees."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BETTER = {"throughput": "higher", "peak_rss_mb": "lower"}


def _pairs(parent, change):
    """Pairs of result lines whose throughput and peak RSS read the given values."""
    side = lambda v: {"metrics": {"throughput": {"value": v}, "peak_rss_mb": {"value": v}},  # noqa: E731
                      "failed": 0, "attempted": 10, "correct": True}
    return [{"pair": i + 1, "parent": side(p), "change": side(c)} for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


@pytest.mark.parametrize(
    "change, won, throughput_claim, rss_claim",
    [
        # higher by far more than the parent's interquartile distance
        ([120.0] * 10, 10, True, False),
        # 9 of 10 won is enough; the lost pair is a tie, which counts for neither
        ([120.0] * 9 + [100.0], 9, True, False),
        ([120.0] * 8 + [90.0] * 2, 8, False, False),
        # every pair won, but the medians differ by less than the parent's spread
        ([p + 0.05 for p in PARENT], 10, False, False),
        # lower is better for peak RSS: every throughput pair lost
        ([80.0] * 10, 0, False, True),
    ],
)
def test_summary_applies_the_claim_rule(change, won, throughput_claim, rss_claim):
    s = bench_record.summarize(_pairs(PARENT, change), BETTER)
    assert s["throughput"]["pairs_won_by_change"] == f"{won} of 10"
    assert s["throughput"]["gain_claimable"] is throughput_claim
    assert s["peak_rss_mb"]["gain_claimable"] is rss_claim
    assert s["failed"] == {"parent": 0, "change": 0} and s["all_correct"]


def test_no_claim_from_fewer_than_ten_pairs():
    s = bench_record.summarize(_pairs(PARENT[:9], [120.0] * 9), BETTER)
    assert s["throughput"]["pairs_won_by_change"] == "9 of 9"
    assert s["throughput"]["gain_claimable"] is False


def test_src_lines_are_recorded_and_printed(tmp_path, capsys):
    # the newlines of src/roundmoments/*.py only, as `cat ... | wc -l` counts
    # them: a last line without one is not counted, nor is any other file
    for side, texts in (("parent", ["a\nb\n", "c\n", "d"]), ("change", ["a\n"])):
        pkg = tmp_path / side / "src" / "roundmoments"
        pkg.mkdir(parents=True)
        for i, text in enumerate(texts):
            (pkg / f"m{i}.py").write_text(text)
        (pkg / "notes.txt").write_text("x\n")
        (tmp_path / side / "src" / "other.py").write_text("x\n")
    counts = {side: bench_record.src_lines(tmp_path / side) for side in bench_record.SIDES}
    assert counts == {"parent": 3, "change": 1}
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"src_lines": counts, "workloads": []}))
    bench_record.compare(path)
    assert capsys.readouterr().out == "src lines: 3 -> 1\n"
