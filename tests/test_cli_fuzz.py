"""Hostile-input fuzzing of the command line: documented exit codes only.

Every run of ``main(argv)`` must end with exit 0, 2, 3 or 4 and must not
leak a traceback, whatever the config and flags.  The generated configs
cover shifts, dissipative systems with and without cells, atomic unions
of lines and cycles, and malformed documents, and ``shadow`` also meets
unions of lines alone, which split line by line; entries reach 1e300, so
orbits leave float range well inside ``--nmax 400``.  Flags reach the
edges of their ranges: ``--delta`` up to the largest float, ``--horizon``
at and past its maximum, and celled systems whose ratio core lies past
the cell-span cap.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftlab.cli import MAX_HORIZON, main
from shiftlab.systems import MAX_CELL_SPAN

ALLOWED_EXITS = {0, 2, 3, 4}

entries = st.one_of(
    st.sampled_from(["1", "2", "1/2", "7/3", "3/7", "1/7", "7", "1e300", "1e-300",
                    "1e400", "1e-400"]),
    st.sampled_from([0.5, 2.0, 1e300, 1e-300, 1.0]),
)
periods = st.lists(entries, min_size=1, max_size=3)


@st.composite
def eps_tables(draw):
    return {
        "core_lo": draw(st.integers(-3, 2)),
        "core": draw(periods),
        "neg_period": draw(periods),
        "pos_period": draw(periods),
    }


p_values = st.sampled_from([1, 2, 3, 1.5])


@st.composite
def shift_configs(draw):
    config = {"kind": "shift", "weights": draw(eps_tables())}
    if draw(st.booleans()):
        config["p"] = draw(p_values)
    return config


@st.composite
def cell_tables(draw):
    # beta sums to mu0 = 1; a wobble row t is normalised so that sum beta*t = 1
    shares = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    total = sum(shares)
    rows = []
    for _ in range(draw(st.integers(0, 2))):
        t = [draw(st.integers(1, 4)) for _ in shares]
        norm = sum(s * ti for s, ti in zip(shares, t))
        rows.append([f"{ti * total}/{norm}" for ti in t])
    return {
        "beta": [f"{s}/{total}" for s in shares],
        "wobble_lo": draw(st.integers(-1, 1)),
        "wobble": rows,
    }


# Ratio cores a celled system's cell ratios must reach from its wobble,
# past the cell-span cap on either side.
far_core_los = st.sampled_from([MAX_CELL_SPAN, 200_000, -(10**9)])


@st.composite
def dissipative_configs(draw):
    config = {"kind": "dissipative", "p": draw(p_values), "mu0": "1", "ratio": draw(eps_tables())}
    if draw(st.booleans()):
        config["cells"] = draw(cell_tables())
        if draw(st.booleans()):
            config["ratio"]["core_lo"] = draw(far_core_los)
    return config


@st.composite
def atomic_configs(draw):
    components = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            components.append({"type": "cycle", "measures": draw(periods)})
        else:
            components.append({"type": "line", "mu0": draw(entries), "ratio": draw(eps_tables())})
    return {"kind": "atomic", "p": draw(p_values), "components": components}


@st.composite
def line_unions(draw):
    """Atomic unions of two or three lines and no cycle: shadow cuts each line on its own."""
    components = [{"type": "line", "mu0": draw(entries), "ratio": draw(eps_tables())}
                  for _ in range(draw(st.integers(2, 3)))]
    return {"kind": "atomic", "p": draw(p_values), "components": components}


@st.composite
def malformed_configs(draw):
    config = draw(st.one_of(shift_configs(), dissipative_configs(), atomic_configs()))
    how = draw(st.sampled_from(["drop", "retype", "zero", "kind", "text"]))
    if how == "text":
        return json.dumps(config)[: draw(st.integers(0, 20))]
    key = draw(st.sampled_from(sorted(config)))
    if how == "drop":
        del config[key]
    elif how == "retype":
        config[key] = draw(st.sampled_from([None, True, "x", [], {}, -1]))
    elif how == "zero":
        config[key] = {"core_lo": 0, "core": ["0"], "neg_period": [], "pos_period": ["1"]}
    else:
        config["kind"] = "banach"
    return config


configs = st.one_of(
    shift_configs(), dissipative_configs(), atomic_configs(), malformed_configs()
)
small_ints = st.integers(-3, 3).map(str)
horizons = st.sampled_from(["1", "5", "200", str(MAX_HORIZON), str(MAX_HORIZON + 1)])


@st.composite
def shadow_flags(draw):
    flags = ["--length", draw(st.sampled_from(["2", "3", "9", "21"]))]
    flags += ["--delta", draw(st.sampled_from(["1e-3", "0.5", "1e-300", "1e308", "1.7e308"]))]
    flags += ["--seed", draw(small_ints)]
    if draw(st.booleans()):
        flags.append("--json")
    return flags


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["classify", "simulate", "shadow", "reduce", "audit"]))
    flags: list[str] = []
    if command == "classify":
        if draw(st.booleans()):
            flags.append("--json")
        flags += ["--method", draw(st.sampled_from(["exact", "horizon"]))]
        flags += ["--horizon", draw(horizons)]
    elif command == "simulate":
        nmin = draw(st.integers(-400, 0))
        flags += ["--nmin", str(nmin), "--nmax", str(draw(st.integers(nmin, 400)))]
        flags += ["--site", draw(small_ints)]
        if draw(st.booleans()):
            flags += ["--cell", draw(small_ints)]
        if draw(st.booleans()):
            flags += ["--component", draw(small_ints)]
    elif command == "shadow":
        flags += draw(shadow_flags())
    elif command == "audit":
        flags += ["--count", "1", "--seed", draw(small_ints)]
        flags += ["--horizon", draw(horizons)]
        if draw(st.booleans()):
            flags.append("--json")
    return command, flags


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exited:  # argparse rejects a flag
            code = exited.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


fuzz_settings = settings(
    derandomize=True,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_documented_exit(config_dir, config, command, flags):
    path = config_dir / "system.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    code, _, err = run_cli([command, str(path), *flags])
    assert code in ALLOWED_EXITS, (code, command, flags, config, err)
    assert "Traceback" not in err


@fuzz_settings
@given(config=configs, invocation=invocations())
def test_cli_exits_with_a_documented_code(config_dir, config, invocation):
    assert_documented_exit(config_dir, config, *invocation)


@fuzz_settings
@given(config=line_unions(), flags=shadow_flags())
def test_shadow_of_line_unions_exits_with_a_documented_code(config_dir, config, flags):
    assert_documented_exit(config_dir, config, "shadow", flags)
