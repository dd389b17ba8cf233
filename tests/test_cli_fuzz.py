"""The CLI's exit-code contract under fuzzed command lines.

Every call through ``run_cli`` must end in exit 0, 2, 3 or 4 with no
traceback, whatever its options hold: malformed numbers, files of the
wrong kind, options a mode does not read, and jobs over a budget.  Inputs
are fixture files made once for the module; outputs go to paths that no
call reads, so examples do not depend on each other.  The module runs
under an address-space limit on its own process, so an allocation that a
budget should have refused fails as a ``MemoryError`` here instead of
exhausting the machine.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import resource

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arccount.cli import run_cli
from conftest import ModelFile

# address space the fuzzed calls may map on top of what the process holds
_HEADROOM = 1 << 30

# option values: mostly good ones, so calls get past parsing into the
# commands, and the bad ones a user could type
EPS = (["0.5", "0.3", "0.1"], ["0.02", "0", "-1", "1.5", "nan", "inf", "x"])
RADII = (["1.0", "0.5"], ["1e-9", "1e9", "0", "-2", "nan", "inf"])
POSITIVE = (["0.5", "0.3", "2"], ["0", "-1", "nan", "inf", "1e300", "1e-300", "x"])
GRID_SIDES = (["0.25", "0.1"], ["0.01", "0", "-1", "nan", "inf", "1e300", "1e-300", "x"])
COUNTS = (["1", "2", "3", "24"], ["0", "-3", "99999999999", "x"])
SEEDS = (["1", "7"], ["-1", "x", str(2**70)])
POINTS = (["1,2", "2 1", "0.5,0.5"], ["1,2,3", "nan,1", "inf,0", "", "a,b", "1e308,-1e308"])
# a value comes from the bad list one time in five
BAD_IN = 5


def _peak_address_space() -> int:
    """The process's current virtual memory size in bytes (``VmSize``)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize in /proc/self/status")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fixture files by role, made once: inputs that calls read, and outputs that no call reads."""
    root = tmp_path_factory.mktemp("fuzz")
    made = {
        "data": root / "data.txt",
        "data3": root / "data3.txt",
        "data_bin": root / "data.bin",
        "queries": root / "queries.txt",
        "learned": root / "learned.arc",
        "worstcase": root / "worstcase.arc",
    }
    calls = [
        ["gen", "--kind", "uniform", "--n", "24", "--d", "2", "--scale", "3", "--seed", "1", "--out", made["data"]],
        ["gen", "--kind", "clusters", "--n", "10", "--d", "3", "--seed", "2", "--out", made["data3"]],
        ["gen", "--kind", "uniform", "--n", "24", "--d", "2", "--seed", "1", "--out", made["data_bin"], "--binary"],
        ["gen-queries", "--kind", "near-data", "--m", "20", "--data", made["data"], "--seed", "3", "--out",
         made["queries"]],
        ["build", "--data", made["data"], "--eps", "0.5", "--mode", "learned", "--m-queries", "200", "--seed", "4",
         "--out-model", made["learned"]],
        ["build", "--data", made["data"], "--eps", "0.5", "--mode", "worstcase", "--seed", "5", "--out-model",
         made["worstcase"]],
    ]
    for argv in calls:
        assert run_cli([str(a) for a in argv]) == 0
    # a model without its radius, one cut short in its leaf order, and one
    # as an arc-model v6 or v7 writer saved it
    learned = ModelFile.read(made["learned"])
    made["truncated_model"] = root / "truncated.arc"
    made["truncated_model"].write_bytes(learned.to_bytes()[:-3])
    made["v6_model"] = root / "v6.json"
    made["v6_model"].write_text(json.dumps(learned.v6_document()))
    made["v7_model"] = root / "v7.arc"
    made["v7_model"].write_bytes(learned.v7_bytes())
    del learned.head["config"]["radius"]
    made["broken_model"] = root / "broken.arc"
    made["broken_model"].write_bytes(learned.to_bytes())
    made["garbage"] = root / "garbage.bin"
    made["garbage"].write_bytes(b"\xff\xfe\x00 not a point file \x80\n1,2\n")
    made["empty"] = root / "empty.txt"
    made["empty"].write_text("")
    made["missing"] = root / "missing.txt"
    made["directory"] = root
    out = root / "out"
    out.mkdir()
    outputs = [out / "a.txt", out / "b.json", out / "c.bin", root, root / "no-such-dir" / "x.txt"]
    return {k: str(v) for k, v in made.items()}, [str(p) for p in outputs]


@pytest.fixture(scope="module")
def address_space_limit():
    """Lower this process's soft ``RLIMIT_AS`` to its current size plus ``_HEADROOM`` while the module runs."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = _peak_address_space() + _HEADROOM
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield limit
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@st.composite
def command_lines(draw, inputs: dict[str, str], outputs: list[str]) -> list[str]:
    """One ``arccount`` command line: a subcommand, and each of its options kept or dropped."""

    def files(good: list[str], bad: list[str]) -> tuple[list[str], list[str]]:
        return [inputs[k] for k in good], [inputs[k] for k in bad]

    points = files(["data"], ["data3", "data_bin", "garbage", "empty", "missing", "directory", "queries"])
    queries = files(["queries"], ["data", "garbage", "empty", "missing"])
    models = files(
        ["learned", "worstcase"], ["broken_model", "truncated_model", "v6_model", "v7_model", "garbage", "data", "missing"]
    )
    out = (outputs[:3], outputs[3:])
    flag = ([None], [None])
    grammar = {
        "gen": [
            ("--kind", (["uniform", "clusters", "grid"], ["bogus"]), True),
            ("--n", COUNTS, True),
            ("--d", COUNTS, True),
            ("--seed", SEEDS, True),
            ("--out", out, True),
            ("--scale", POSITIVE, False),
            ("--k-clusters", COUNTS, False),
            ("--cluster-sigma", POSITIVE, False),
            ("--spacing", POSITIVE, False),
            ("--random-weights", flag, False),
            ("--binary", flag, False),
        ],
        "gen-queries": [
            ("--kind", (["uniform", "near-data", "file"], []), True),
            ("--m", COUNTS, False),
            ("--seed", SEEDS, False),
            ("--out", out, True),
            ("--data", points, True),
            ("--sigma", POSITIVE, False),
            ("--margin", POSITIVE, False),
            ("--binary", flag, False),
        ],
        "build": [
            ("--data", points, True),
            ("--eps", EPS, True),
            ("--radius", RADII, False),
            # small worst-case jobs, so its budget and refusals get fuzzed
            ("--mode", (["worstcase", "worstcase", "learned"], []), True),
            ("--queries", queries, False),
            ("--m-queries", COUNTS, False),
            ("--sigma", POSITIVE, False),
            ("--query-grid-side", GRID_SIDES, False),
            ("--seed", SEEDS, True),
            ("--out-model", out, True),
        ],
        "query": [
            ("--model", models, True),
            ("--data", points, True),
            ("--q", POINTS, True),
            ("--verify", flag, False),
        ],
        "eval": [
            ("--model", models, True),
            ("--data", points, True),
            ("--queries", queries, True),
            ("--out-report", out, True),
            ("--per-query", flag, False),
        ],
        "oracle": [
            ("--data", points, True),
            ("--q", POINTS, True),
            ("--eps", EPS, True),
            ("--radius", RADII, False),
        ],
    }
    command = draw(st.sampled_from(sorted(grammar)))
    argv = [command]
    for option, (good, bad), required in grammar[command]:
        # a required option is dropped one time in twenty, an optional one kept one time in four
        if draw(st.integers(0, 19)) < (19 if required else 5):
            value = draw(st.sampled_from(bad if bad and draw(st.integers(0, BAD_IN - 1)) == 0 else good))
            argv += [option] if value is None else [option, value]
    if draw(st.integers(0, 19)) == 0:
        argv.append("--no-such-option")
    return argv

def run(argv: list[str]) -> tuple[int, str]:
    """The exit code of one call, argparse's included, and what it wrote to stderr."""
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
        try:
            rc = run_cli(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, err.getvalue()


@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_command_line_exits_with_a_contract_code(files, address_space_limit, data):
    inputs, outputs = files
    argv = data.draw(command_lines(inputs, outputs), label="argv")
    rc, err = run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)


def test_worst_case_builds_over_the_budget_are_refused(files, address_space_limit):
    # a universe of about 5e5 queries over 24 points is 2.4e7 bytes of masks,
    # over the 8e6 budget; the refusal comes before the masks are allocated
    inputs, outputs = files
    argv = ["build", "--data", inputs["data"], "--eps", "0.02", "--mode", "worstcase", "--seed", "1",
            "--out-model", outputs[0]]
    rc, err = run(argv)
    assert rc == 3 and "--mode learned" in err
