"""Property tests: whatever config or trajectory the command line is handed,
cli.main returns a code from the README exit table and never raises.

Every drawn value is JSON-like and small, so every case that runs stays
tiny: K <= 8, t_end <= 2 dt, n_max <= 1 and M <= 64 unless the drawn key
is that one, and integers lie in [-2, 4], except that a key of kind int
also draws integers up to 10^30, past every upper bound.  test_magnitudes
instead draws the law's parameters, the data's amplitude, a1 and dt
log-uniformly from 1e-300 to 1e300 (K <= 8, one or two steps), and also
requires every number in every file written to be finite.  The profile is
derandomized with no example database, so the suite stays deterministic.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peskin2d import cli
from peskin2d.initdata import _SPEC_SCHEMAS
from peskin2d.integrator import _RUN_SCHEMA
from peskin2d.tension import _LAW_SCHEMAS

EXIT_CODES = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)

NUMBERS = st.integers(-2, 4) | st.sampled_from(
    [-1.0, 0.0, 0.03, 0.05, 0.1, 1.5, math.nan, math.inf, -math.inf])
SCALARS = st.none() | st.booleans() | NUMBERS | st.sampled_from(
    ["", "s", "w", "x", "1", "cubic", "hookean", "corner", "single_mode"])
# numbers and lists of numbers weigh more, so that more drawn values pass the reader
VALUES = NUMBERS | st.lists(NUMBERS, max_size=3) | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["law", "kind", "k", "c", "x"]), inner, max_size=2),
    max_leaves=6)
BIG_INTS = st.integers(-2, 10 ** 30)
CELLS = st.sampled_from(["", "x", "nan", "inf", "-inf", "-1", "0", "1e400", "1e-400"])

SIM = {"law": {"law": "cubic"}, "initial_data": {"kind": "single_mode", "k": 2},
       "K": 8, "M": 32, "dt": 0.05, "t_end": 0.1}
INITIAL = {
    "single_mode": {"kind": "single_mode", "k": 2},
    "random_decay": {"kind": "random_decay"},
    "corner": {"kind": "corner", "positions": [0.0, 1.9], "strengths": [1.0, 0.7]},
    "polygonal": {"kind": "polygonal", "vertices": 3},
}
COMMANDS = {
    "linear-spectrum": ({"m_max": 4}, cli._SPECTRUM_SCHEMA),
    "verify-kernels": ({"k_max": 1, "M": 64, "n_max": 1, "oversample": 2,
                        "alphas_per_decade": 1}, cli._KERNELS_SCHEMA),
    "verify-linearization": ({"law": {"law": "hookean"}, "k_max": 2, "M": 64},
                             cli._LINEARIZATION_SCHEMA),
}


def edits(base, schema):
    """base with one key (a known one or not) set to a drawn value, or one key dropped.

    A key of kind int in schema also draws from BIG_INTS.
    """
    def values(key):
        return VALUES | BIG_INTS if schema.get(key, ("",))[0] == "int" else VALUES

    set_one = (st.sampled_from(sorted(schema)) | st.text(max_size=3)).flatmap(
        lambda key: values(key).map(lambda value: {**base, key: value}))
    drop_one = st.sampled_from(sorted(base)).map(
        lambda key: {k: v for k, v in base.items() if k != key})
    return set_one | drop_one


def simulate_configs():
    laws = st.sampled_from(sorted(_LAW_SCHEMAS)).flatmap(
        lambda kind: edits({"law": kind}, {"law": ("str",), **_LAW_SCHEMAS[kind]}))
    initial = st.sampled_from(sorted(INITIAL)).flatmap(
        lambda kind: edits(INITIAL[kind], {"kind": ("str",), **_SPEC_SCHEMAS[kind]}))
    return (edits(SIM, _RUN_SCHEMA)
            | laws.map(lambda law: {**SIM, "law": law})
            | initial.map(lambda data: {**SIM, "initial_data": data}))


def check_main(argv):
    """Run cli.main; its code is in the table, and an error code comes with a message."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXIT_CODES
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED) or err.getvalue().startswith("error: ")


def check_config(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        check_main([command, "--config", path, "--out", os.path.join(tmp, "out")])


@PROFILE
@given(simulate_configs())
def test_simulate_config(config):
    check_config("simulate", config)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@PROFILE
@given(data=st.data())
def test_command_config(command, data):
    base, schema = COMMANDS[command]
    check_config(command, data.draw(edits(base, schema)))


@pytest.mark.parametrize("command", ["simulate", *sorted(COMMANDS)])
@settings(PROFILE, max_examples=10)
@given(config=VALUES.filter(lambda value: not isinstance(value, dict)))
def test_non_object_config(command, config):
    check_config(command, config)


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    """A decaying K = 8 trajectory with eight snapshots."""
    root = tmp_path_factory.mktemp("traj")
    config = dict(SIM, t_end=4.0, snapshot_every=0.5)
    path = root / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(path), "--out", str(root / "run")]) == 0
    return root / "run"


def snapshot_edits(snapshot):
    modes = snapshot["modes"]
    return (VALUES
            | st.builds(lambda key, value: {**snapshot, key: value},
                        st.sampled_from(sorted(snapshot)), VALUES)
            | st.builds(lambda i, value: {**snapshot, "modes": modes[:i] + [value] + modes[i + 1:]},
                        st.integers(0, len(modes) - 1), VALUES | st.lists(NUMBERS, max_size=3)))


@pytest.mark.parametrize("command", ["measure-norms", "fit-decay"])
@settings(PROFILE, max_examples=40)
@given(data=st.data())
def test_malformed_trajectory(command, trajectory, data):
    with tempfile.TemporaryDirectory() as tmp:
        traj = os.path.join(tmp, "traj")
        shutil.copytree(trajectory, traj)
        names = sorted(n for n in os.listdir(traj) if n.startswith("snapshot_"))
        table_path = os.path.join(traj, "diagnostics.csv")
        with open(table_path) as fh:
            rows = list(csv.reader(fh))
        edit = data.draw(st.sampled_from(["snapshot", "cell", "drop-row", "no-table",
                                          "no-snapshots"]))
        if edit == "snapshot":
            path = os.path.join(traj, data.draw(st.sampled_from(names)))
            with open(path) as fh:
                snapshot = json.load(fh)
            with open(path, "w") as fh:
                json.dump(data.draw(snapshot_edits(snapshot)), fh)
        elif edit in ("cell", "drop-row"):
            i = data.draw(st.integers(0, len(rows) - 1))
            if edit == "cell":
                rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(CELLS)
            else:
                del rows[i]
            with open(table_path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        elif edit == "no-table":
            os.remove(table_path)
        else:
            for name in names:
                os.remove(os.path.join(traj, name))
        check_main([command, "--traj", traj, "--out", os.path.join(tmp, "out")])


# magnitudes on a log scale across the float range, as the law, data and step take them
MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
LAW_PARAMS = {"hookean": ("k0",), "cubic": ("c",), "power": ("p",), "affine": ("c0", "c1")}


@st.composite
def magnitude_configs(draw):
    """simulate, linear-spectrum and verify-linearization configs, magnitudes log-uniform.

    K <= 8 and one or two steps: a case costs no more than the configs above.
    """
    kind = draw(st.sampled_from(sorted(LAW_PARAMS)))
    law = {"law": kind, **{key: draw(MAGNITUDES) for key in LAW_PARAMS[kind]},
           "r_max": draw(MAGNITUDES)}
    a1, amplitude = draw(MAGNITUDES), draw(MAGNITUDES)
    initial = draw(st.sampled_from([
        {"kind": "single_mode", "k": 2, "amplitude": amplitude},
        {"kind": "single_mode", "k": 1, "amplitude": a1, "allow_steady": True},
        {"kind": "random_decay", "amplitude": amplitude},
        {"kind": "corner", "positions": [0.0, 1.9], "strengths": [1.0, 0.7],
         "amplitude": amplitude}]))
    dt = draw(MAGNITUDES)
    simulate = {"law": law, "initial_data": initial, "K": draw(st.integers(1, 8)), "dt": dt,
                "t_end": dt * draw(st.sampled_from([1, 2]))}
    return (simulate, {"law": law, "a1": [a1, 0.0], "m_max": 5},
            {"law": law, "a1": [a1, 0.0], "k_max": 2, "M": 64})


def check_finite_outputs(out):
    """Every number in every file under out is finite."""
    def reject(constant):
        raise AssertionError(f"non-finite {constant} in {out}")

    for name in os.listdir(out) if os.path.isdir(out) else ():
        with open(os.path.join(out, name)) as fh:
            if name.endswith(".csv"):
                cells = [float(v) for row in list(csv.reader(fh))[1:] for v in row]
                assert all(map(math.isfinite, cells)), f"non-finite cell in {name}"
            else:
                json.load(fh, parse_constant=reject)


@PROFILE
@given(magnitude_configs())
def test_magnitudes(configs):
    for command, config in zip(("simulate", "linear-spectrum", "verify-linearization"), configs):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            check_main([command, "--config", path, "--out", os.path.join(tmp, "out")])
            check_finite_outputs(os.path.join(tmp, "out"))
