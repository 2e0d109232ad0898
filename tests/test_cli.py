import ast
import hashlib
import json
import math
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qolct
from qolct import Grid2D, QField, UNIT_I, UNIT_J, UNIT_K, _mutation, synth_gaussian
from qolct.field import apply_chirp
from qolct.signalio import (
    MAGIC,
    TransformParams,
    read_csv_signal,
    read_params,
    read_signal,
    write_params,
    write_signal,
)
from qolct.olct import OffsetParams
from qolct.quat import PureUnit
from qolct.verify import QFT_CASE


def run_cli(*args, check=False):
    proc = subprocess.run([sys.executable, "-m", "qolct.cli", *args],
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture()
def qft_params(tmp_path):
    path = tmp_path / "qft.json"
    A = QFT_CASE
    write_params(path, TransformParams(A, A, UNIT_I, UNIT_J))
    return str(path)


@pytest.fixture()
def general_params(tmp_path):
    path = tmp_path / "gen.json"
    write_params(path, TransformParams(
        OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2),
        OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4), UNIT_I, UNIT_J))
    return str(path)


# ---------------------------------------------------------------------------
# Signal file format.

def test_signal_file_layout_and_round_trip(tmp_path):
    g = Grid2D(6, 5, 0.25, -1.0, 0.5, 0.75)
    rng = np.random.default_rng(3)
    f = QField(g, rng.normal(size=(6, 5, 4)))
    path = tmp_path / "sig.qsig"
    write_signal(path, f)
    raw = path.read_bytes()
    assert len(raw) == 6 + 8 + 32 + 32 * 6 * 5
    assert raw[:6] == b"QSIG1\0"
    back = read_signal(path)
    assert back.grid == g
    assert np.array_equal(back.samples, f.samples)
    # write-after-read is byte identical
    path2 = tmp_path / "sig2.qsig"
    write_signal(path2, back)
    assert hashlib.sha256(path2.read_bytes()).hexdigest() == \
        hashlib.sha256(raw).hexdigest()


def test_signal_file_is_header_then_planar_payload(tmp_path):
    g = Grid2D(6, 5, 0.25, -1.0, 0.5, 0.75)
    samples = np.random.default_rng(4).normal(size=(6, 5, 4))
    path = tmp_path / "sig.qsig"
    write_signal(path, QField(g, samples))
    header = struct.pack("<6sII4d", b"QSIG1\0", 6, 5, 0.25, -1.0, 0.5, 0.75)
    payload = b"".join(samples[..., m].astype("<f8").tobytes() for m in range(4))
    assert path.read_bytes() == header + payload


# every finite float64, subnormals and -0.0 included
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
_SPACING = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                     width=64)


@given(
    n1=st.integers(min_value=1, max_value=7),
    n2=st.integers(min_value=1, max_value=7),
    centers=st.tuples(_FINITE, _FINITE),
    spacings=st.tuples(_SPACING, _SPACING),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_signal_file_round_trip_property(tmp_path_factory, n1, n2, centers,
                                         spacings, data):
    samples = data.draw(arrays(np.float64, (n1, n2, 4), elements=_FINITE))
    from qolct.field import QField
    g = Grid2D(n1, n2, *centers, *spacings)
    f = QField(g, samples)
    path = tmp_path_factory.mktemp("sig") / "roundtrip.qsig"
    write_signal(path, f)
    back = read_signal(path)
    assert back.grid == g
    assert np.array_equal(back.samples, f.samples)
    again = path.with_name("again.qsig")
    write_signal(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_signal_file_rejects_corruption(tmp_path):
    g = Grid2D(4, 4, 0.0, 0.0, 1.0, 1.0)
    path = tmp_path / "sig.qsig"
    write_signal(path, synth_gaussian(g, 1.0, 1.0))
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad.qsig"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_signal(bad)
    truncated = tmp_path / "trunc.qsig"
    truncated.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ValueError):
        read_signal(truncated)


def test_signal_readers_reject_non_finite(tmp_path):
    g = Grid2D(4, 5, 0.0, 0.0, 0.5, 0.5)
    f = synth_gaussian(g, 1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        samples = f.samples.copy()
        samples[2, 3, 1] = bad
        path = tmp_path / "bad.qsig"
        write_signal(path, QField(g, samples))
        with pytest.raises(ValueError, match="bad.qsig: 1 non-finite"):
            read_signal(path)
    # a non-finite grid field in the header is rejected too, naming the file
    path = tmp_path / "badgrid.qsig"
    path.write_bytes(struct.pack("<6sII4d", MAGIC, 4, 5, 0.0, 0.0, math.nan, 0.5)
                     + bytes(32 * 4 * 5))
    with pytest.raises(ValueError, match="badgrid.qsig: spacing1"):
        read_signal(path)

    csv = tmp_path / "bad.csv"
    rows = ["t1,t2,q0,q1,q2,q3"] + [f"{a},{b},1,0,0,0" for a in (0, 1)
                                    for b in (0, 1)]
    rows[3] = "1,0,nan,0,0,0"
    csv.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="bad.csv: 1 non-finite"):
        read_csv_signal(csv)


def test_params_round_trip_and_validation(tmp_path):
    path = tmp_path / "p.json"
    params = TransformParams(
        OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2),
        OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4),
        PureUnit(1, 1, 0), UNIT_J)
    write_params(path, params)
    back = read_params(path)
    assert back.A1 == params.A1
    assert np.allclose([back.lam.x, back.lam.y, back.lam.z],
                       [params.lam.x, params.lam.y, params.lam.z], atol=1e-15)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "A1": {"a": 1, "b": 1, "c": 1, "d": 5},
        "A2": {"a": 0, "b": 1, "c": -1, "d": 0},
        "lambda": [1, 0, 0], "mu": [0, 1, 0]}))
    with pytest.raises(ValueError):
        read_params(bad)
    bad.write_text(json.dumps({
        "A1": {"a": 0, "b": 1, "c": -1, "d": 0},
        "A2": {"a": 0, "b": 1, "c": -1, "d": 0},
        "lambda": [0, 0, 0], "mu": [0, 1, 0]}))
    with pytest.raises(ValueError):
        read_params(bad)


def test_csv_import(tmp_path):
    path = tmp_path / "sig.csv"
    t = np.linspace(-2.0, 2.0, 9)
    lines = ["t1,t2,q0,q1,q2,q3"]
    for a in t:
        for b in t:
            lines.append(f"{a},{b},{np.exp(-a*a-b*b)},0.5,0,-1")
    lines.insert(len(lines) // 2, "")  # a blank row is skipped
    path.write_text("\n".join(lines) + "\n")
    f = read_csv_signal(path)
    assert (f.grid.n1, f.grid.n2) == (9, 9)
    assert f.grid.spacing1 == pytest.approx(0.5)
    assert f.grid.center1 == pytest.approx(0.0)
    assert f.samples.flags.owndata and not f.samples.flags.writeable  # kept, not copied

    # dropping one row leaves an incomplete grid
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_csv_signal(path)
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv_signal(path)


# ---------------------------------------------------------------------------
# Subcommands and exit codes.

def test_synth_peak_value(tmp_path):
    out = str(tmp_path / "f.qsig")
    proc = run_cli("synth", "gaussian", "--n", "64", "--extent", "16",
                   "--alpha1", "1", "--alpha2", "1", "--out", out, check=True)
    assert "64x64" in proc.stdout
    f = read_signal(out)
    h = 16.0 / 64
    # cell-centered grid: the four center cells carry e^{-2 (h/2)^2}
    want = np.exp(-2.0 * (h / 2) ** 2)
    assert f.modulus().max() == pytest.approx(want, rel=1e-12)

    zero = str(tmp_path / "z.qsig")
    run_cli("synth", "gaussian", "--n", "16", "--extent", "4",
            "--beta11", "0", "--beta21", "0", "--out", zero, check=True)
    assert np.abs(read_signal(zero).samples).max() == 0.0


def test_transform_forward_inverse_cycle(tmp_path, qft_params):
    sig = str(tmp_path / "f.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "16",
            "--alpha1", "0.5", "--alpha2", "0.5", "--out", sig, check=True)
    fwd = str(tmp_path / "F.qsig")
    run_cli("transform", "--in", sig, "--params", qft_params, "--out", fwd,
            check=True)
    sidecar = json.loads((tmp_path / "F.qsig.json").read_text())
    assert sidecar["plancherel_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert sidecar["direction"] == "forward"

    back = str(tmp_path / "back.qsig")
    run_cli("transform", "--in", fwd, "--params", qft_params, "--inverse",
            "--out", back, "--reference", sig, check=True)
    sidecar = json.loads((tmp_path / "back.qsig.json").read_text())
    assert sidecar["l2_rel_distance_to_reference"] <= 1e-7

    # zero input -> zero output
    zero = str(tmp_path / "zero.qsig")
    run_cli("synth", "gaussian", "--n", "32", "--extent", "8",
            "--beta11", "0", "--beta21", "0", "--out", zero, check=True)
    zout = str(tmp_path / "zout.qsig")
    run_cli("transform", "--in", zero, "--params", qft_params, "--out", zout,
            check=True)
    assert np.abs(read_signal(zout).samples).max() == 0.0


def test_transform_exit_codes(tmp_path, qft_params, general_params):
    sig = str(tmp_path / "f.qsig")
    run_cli("synth", "gaussian", "--n", "16", "--extent", "16",
            "--alpha1", "0.2", "--alpha2", "0.2", "--out", sig, check=True)

    # missing input: I/O failure
    proc = run_cli("transform", "--in", str(tmp_path / "nope.qsig"),
                   "--params", qft_params, "--out", str(tmp_path / "o.qsig"))
    assert proc.returncode == 3

    # invalid params: usage error
    bad = tmp_path / "bad.json"
    bad.write_text('{"A1": {"a": 1, "b": 1, "c": 1, "d": 5}, '
                   '"A2": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                   '"lambda": [1,0,0], "mu": [0,1,0]}')
    proc = run_cli("transform", "--in", sig, "--params", str(bad),
                   "--out", str(tmp_path / "o.qsig"))
    assert proc.returncode == 2

    # unresolved chirp on a coarse grid: numerical precondition, named bound
    chirpy = tmp_path / "chirpy.json"
    chirpy.write_text('{"A1": {"a": 2.0, "b": 0.5, "c": 1.0, "d": 0.75}, '
                      '"A2": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                      '"lambda": [1,0,0], "mu": [0,1,0]}')
    proc = run_cli("transform", "--in", sig, "--params", str(chirpy),
                   "--out", str(tmp_path / "o.qsig"))
    assert proc.returncode == 4
    assert "chirp resolution" in proc.stderr

    # unknown flag: argparse usage error
    proc = run_cli("transform", "--bogus")
    assert proc.returncode == 2


def test_non_finite_input_exit_code(tmp_path, qft_params):
    f = synth_gaussian(Grid2D.centered(16, 8.0), 1.0, 1.0)
    samples = f.samples.copy()
    samples[5, 7, 0] = math.nan
    sig = str(tmp_path / "nan.qsig")
    write_signal(sig, QField(f.grid, samples))
    for argv in (("transform", "--out", str(tmp_path / "o.qsig")),
                 ("uncertainty", "--which", "heisenberg")):
        proc = run_cli(argv[0], "--in", sig, "--params", qft_params, *argv[1:])
        assert proc.returncode == 2, proc.stderr
        assert "nan.qsig" in proc.stderr and "non-finite" in proc.stderr
    assert not (tmp_path / "o.qsig").exists()


#: every float flag of ``synth``, and of ``uncertainty`` with the report
#: that reads it
SYNTH_FLOAT_FLAGS = ("--extent", "--alpha1", "--alpha2", "--beta11", "--beta12",
                     "--beta21", "--beta22", "--center1", "--center2",
                     "--grid-center1", "--grid-center2", "--chirp1", "--chirp2",
                     "--lin1", "--lin2")
UNCERTAINTY_FLOAT_FLAGS = {"--alpha": "pitt", "--d": "beurling",
                           "--radius": "beurling"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize("flag", [*SYNTH_FLOAT_FLAGS, *UNCERTAINTY_FLOAT_FLAGS])
def test_float_flags_reject_non_finite(tmp_path, qft_params, capsys, flag, value):
    # a usage error at parse time: exit 2, nothing computed or written
    from qolct import cli

    out = tmp_path / "out"
    if flag in SYNTH_FLOAT_FLAGS:
        argv = ["synth", "chirped-gaussian", "--n", "16", "--out", str(out)]
    else:
        sig = str(tmp_path / "f.qsig")
        write_signal(sig, synth_gaussian(Grid2D.centered(16, 8.0), 0.5, 0.5))
        argv = ["uncertainty", "--in", sig, "--params", qft_params,
                "--which", UNCERTAINTY_FLOAT_FLAGS[flag], "--json", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, message", [
    (["gaussian", "--n", "0"], 2, "sample counts must be positive"),
    (["gaussian", "--extent", "1e300"], 4, "exponent overflows"),
    (["gaussian", "--n", "65", "--extent", "1e300"], 4, "exponent overflows"),  # t = 0
    (["gaussian", "--n", "4", "--extent", "64", "--alpha1", "1e3"], 4, "underflows to 0"),
    (["chirped-gaussian", "--n", "16", "--extent", "8", "--chirp1", "1e308"], 4,
     "overflows the largest float"),  # the chirp phase: NaN samples
    (["gaussian", "--beta11", "1e200", "--beta21", "1e200"], 4,
     "overflows the largest float"),  # the amplitude: inf samples
], ids=["no-samples", "overflow", "overflow-odd", "underflow", "chirp-phase",
        "amplitude"])
def test_synth_rejects_a_gaussian_it_cannot_sample(tmp_path, capsys, argv, code, message):
    from qolct import cli

    out = tmp_path / "f.qsig"
    assert cli.main(["synth", *argv, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("axis, code", [("1e200,1e200,0", 0), ("1e-320,0,0", 0),
                                        ("0,0,0", 2), ("1e400,0,0", 2), ("nan,0,0", 2)])
def test_synth_normalizes_every_finite_nonzero_axis(tmp_path, capsys, axis, code):
    from qolct import cli

    out = tmp_path / "f.qsig"
    assert cli.main(["synth", "gaussian", "--n", "16", "--beta12", "0.5",
                     "--lambda", axis, "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:  # three numbers: the message names the fault, not the format
        err = capsys.readouterr().err
        assert "--lambda: pure unit axis requires a nonzero finite vector part" in err
        assert "comma-separated" not in err


@pytest.mark.parametrize("flag, value", [("--lambda", "1,0"), ("--mu", "a,b,c")])
def test_synth_rejects_a_malformed_axis_flag(tmp_path, capsys, flag, value):
    from qolct import cli

    out = tmp_path / "f.qsig"
    assert cli.main(["synth", "gaussian", "--n", "16", flag, value,
                     "--out", str(out)]) == 2
    assert f"{flag} expects three comma-separated numbers" in capsys.readouterr().err
    assert not out.exists()


def test_singular_weight_exit_code(tmp_path, qft_params):
    # odd n: the centered grids sample t = 0 and v = 0, where |v|^(-alpha)
    # and ln|v|, ln|t| are infinite; the CLI must not write Infinity
    sig = str(tmp_path / "odd.qsig")
    run_cli("synth", "gaussian", "--n", "65", "--extent", "16",
            "--alpha1", "0.5", "--alpha2", "0.5", "--out", sig, check=True)
    for which in ("pitt", "logup"):
        out = tmp_path / f"{which}.json"
        proc = run_cli("uncertainty", "--in", sig, "--params", qft_params,
                       "--which", which, "--json", str(out))
        assert proc.returncode == 4, (which, proc.stderr)
        assert "singular at the origin" in proc.stderr
        assert "n1=65" in proc.stderr  # the message names the grid
        written = out.read_text() if out.exists() else ""
        for text in (proc.stdout, proc.stderr, written):
            assert "Infinity" not in text and "NaN" not in text


def test_runtime_imports_no_scipy():
    # scipy is a test-only oracle: the package and the CLI must import and
    # run with it unavailable (including the b = 0 spline in verify qolct)
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import qolct.cli, qolct.verify\n"
            "sys.exit(qolct.cli.main(['verify', 'qolct', '--seed', '0']))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] qolct:degenerate-identity" in proc.stdout


def test_degenerate_branch_cli(tmp_path):
    sig = str(tmp_path / "f.qsig")
    run_cli("synth", "gaussian", "--n", "48", "--extent", "12",
            "--alpha1", "1", "--alpha2", "1", "--out", sig, check=True)
    params = tmp_path / "deg.json"
    params.write_text('{"A1": {"a": 1, "b": 0, "c": 0, "d": 1}, '
                      '"A2": {"a": 1, "b": 0, "c": 0, "d": 1}, '
                      '"lambda": [1,0,0], "mu": [0,1,0]}')
    out = str(tmp_path / "o.qsig")
    run_cli("transform", "--in", sig, "--params", str(params),
            "--out", out, check=True)
    got = read_signal(out)
    want = read_signal(sig)
    assert np.abs(got.samples - want.samples).max() <= 1e-12
    sidecar = json.loads((tmp_path / "o.qsig.json").read_text())
    assert sidecar["direction"] == "degenerate:both_zero"
    assert sidecar["plancherel_ratio"] is None


def test_degenerate_branch_cli_checks_the_other_axis(tmp_path):
    # b1 = 0 beside a b2 = 1 axis whose grid is moved by 2: the derived
    # spacing 0.785 times the reach 5.94 passes pi, as it does with b1 = 1
    sig = str(tmp_path / "s.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "8",
            "--grid-center2", "2", "--out", sig, check=True)
    params = tmp_path / "b1zero.json"
    params.write_text('{"A1": {"a": 1, "b": 0, "c": 0.5, "d": 1}, '
                      '"A2": {"a": 1, "b": 1, "c": 0, "d": 1}, '
                      '"lambda": [1,0,0], "mu": [0,1,0]}')
    out = tmp_path / "o.qsig"
    proc = run_cli("transform", "--in", sig, "--params", str(params),
                   "--out", str(out))
    assert proc.returncode == 4, proc.stderr
    assert "axis 2: output spacing 0.785398 times input reach 5.9375" in proc.stderr
    assert not out.exists()


#: the checks each defect fixture fails at seed 5; an entry may be added,
#: never dropped
_FIXTURE_FAILURES = {
    "right-kernel-sign": {"oracle:closed-form-vs-direct", "qolct:forward-equals-direct"},
    "iqft-scale": {"qft:inversion-round-trip", "qolct:inversion-round-trip"},
    "chirp-sign": {"oracle:closed-form-vs-forward", "qolct:degenerate-equals-kernel-sum",
                   "qolct:density-equals-analysis-quartet",
                   "qolct:forward-equals-direct", "qolct:qlct-reduction",
                   "qolct:shift-covariance-general"},
    "planes-conj": {"oracle:closed-form-vs-forward", "qft:fast-equals-direct",
                    "qolct:degenerate-equals-kernel-sum",
                    "qolct:density-equals-analysis-quartet",
                    "qolct:forward-equals-direct", "qolct:qft-reduction",
                    "qolct:qlct-reduction", "qft:derivative-identity-n1",
                    "qolct:modulation-covariance-general",
                    "qolct:shift-covariance-general"},
    "density-fold": {"qolct:density-equals-analysis-quartet",
                     "qolct:moment-identity-axis1", "qolct:moment-identity-axis2",
                     "uncertainty:heisenberg-classical-equality",
                     "uncertainty:logup-gaussian-sharp",
                     "uncertainty:pitt-equality-alpha0",
                     "uncertainty:pitt-slack-nonnegative"},
    "degenerate-chirp": {"qolct:degenerate-equals-kernel-sum"},
    "stencil": {"qft:derivative-identity-m1", "qft:derivative-identity-n1",
                "qolct:moment-identity-axis1", "qolct:moment-identity-axis2"},
}

#: the checks no fixture fails at seed 5.  A check that comes to fail under a
#: fixture may leave the list; a new check that none fails fails the test
#: until it is listed, so it is seen.
_NEVER_FAILING = {
    "algebra:hamilton-multiplication-table",
    "algebra:product-associativity",
    "algebra:conjugation-anti-involution",
    "algebra:norm-multiplicativity",
    "algebra:same-axis-exponential-addition",
    "algebra:inverse-sqrt-squares-to-axis",
    "algebra:polar-reconstruction",
    "algebra:inverse-identity",
    "qft:plancherel-4pi2",
    "qft:plancherel-4pi2-random-axes",
    "qft:dilation-identity",
    "qft:real-linearity",
    "qolct:quartet-plancherel",
    "qolct:shift-covariance-qft-case",
    "qolct:modulation-covariance-qft-case",
    "qolct:degenerate-identity",
    "qolct:transform-decay",
    "oracle:envelope-peak-at-offset",
    "oracle:offset-gaussian-integral",
    "uncertainty:gamma-recurrence",
    "uncertainty:gamma-half",
    "uncertainty:log-constant-cross-check",
    "uncertainty:pitt-constant-continuity",
    "uncertainty:logup-slack-nonnegative",
    "uncertainty:heisenberg-weak-bound",
    "uncertainty:hardy-critical-product",
    "uncertainty:beurling-growth-with-radius",
    "uncertainty:beurling-decreasing-in-d",
}


def test_verify_exit_codes_and_mutations(tmp_path):
    report = str(tmp_path / "v.json")
    proc = run_cli("verify", "algebra", "--seed", "5", "--json", report)
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "v.json").read_text())
    assert doc["n_failed"] == 0
    assert all(rec["pass"] for rec in doc["checks"])

    checks, caught = set(), set()
    for name, expected in _FIXTURE_FAILURES.items():
        proc = run_cli("verify", "all", "--seed", "5", "--mutate", name,
                       "--json", str(tmp_path / f"m-{name}.json"))
        assert proc.returncode == 1, name
        doc = json.loads((tmp_path / f"m-{name}.json").read_text())
        failed = {rec["check"] for rec in doc["checks"] if not rec["pass"]}
        assert doc["n_failed"] == len(failed)
        assert expected <= failed, (name, sorted(expected - failed))
        checks |= {rec["check"] for rec in doc["checks"]}
        caught |= failed
    assert checks - caught <= _NEVER_FAILING, sorted(checks - caught - _NEVER_FAILING)


def test_fixtures_do_not_leak_through_kept_results():
    # one process: unarmed, under each fixture, unarmed again.  Results are
    # kept across calls (the analysis memo and the forward beside it), keyed
    # on the armed fixture, so each fixture still fails its checks (the seed-5
    # sets above hold at seed 1 too) and the last run repeats the first
    from qolct.verify import run_suite

    first = run_suite("all", 1)
    assert all(rec["pass"] for rec in first)
    for name in _mutation.MUTATIONS:
        with _mutation.inject(name):
            failed = {rec["check"] for rec in run_suite("all", 1) if not rec["pass"]}
        assert _FIXTURE_FAILURES[name] <= failed, name
    assert run_suite("all", 1) == first


def test_each_fixture_has_one_injection_point():
    names = []
    for path in Path(qolct.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "active"
                    and getattr(node.func.value, "id", None) == "_mutation"):
                assert isinstance(node.args[0], ast.Constant), path.name
                names.append(node.args[0].value)
    assert sorted(names) == sorted(_mutation.MUTATIONS)


def test_algebra_suite_is_fast():
    # the algebra suite runs no transform computation
    import time
    from qolct.verify import run_suite
    t0 = time.perf_counter()
    records = run_suite("algebra", 3)
    assert time.perf_counter() - t0 < 1.0
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize("seed", [0, 1])
def test_each_verify_suite_peaks_within_16_mib(seed):
    # a cold `verify all` runs every suite in one process, so the largest
    # suite sets its peak; a judge whose reference is larger than this must
    # build it by blocks (the offset-Gaussian quadrature runs 2^14 cells at a
    # time), and the qft suite's 192^2 derivative identities read about 12 MiB
    import tracemalloc
    from qolct import verify

    peaks = {}
    for name, suite in verify._SUITE_FNS.items():
        tracemalloc.start()
        try:
            suite(seed)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 16.0, peaks



def test_verify_deterministic_given_seed(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run_cli("verify", "qft", "--seed", "11", "--json", a, check=True)
    run_cli("verify", "qft", "--seed", "11", "--json", b, check=True)
    da = json.loads((tmp_path / "a.json").read_text())
    db = json.loads((tmp_path / "b.json").read_text())
    da.pop("timestamp")
    db.pop("timestamp")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


# ---------------------------------------------------------------------------
# Cold start: the judges load only for the commands that run them.

_JUDGES = {"qolct.oracle", "qolct.uncertainty", "qolct.verify"}


def _judges_loaded(code: str) -> list:
    """The judge modules in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(set(sys.modules) & {_JUDGES!r})))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: a command run in process; its exit code must be 0
_RUN = "from qolct import cli; assert cli.main({argv!r}) == 0"


@pytest.mark.parametrize("code, loaded", [
    ("import qolct", []),
    ("import qolct.cli", []),
    (_RUN.format(argv=["synth", "gaussian", "--n", "8", "--out", "{new}"]), []),
    (_RUN.format(argv=["transform", "--in", "{sig}", "--params", "{params}",
                       "--out", "{new}"]), []),
    (_RUN.format(argv=["uncertainty", "--in", "{sig}", "--params", "{params}",
                       "--which", "heisenberg"]), ["qolct.uncertainty"]),
    (_RUN.format(argv=["verify", "qft", "--seed", "3", "--json", "{new}"]), sorted(_JUDGES)),
    ("from qolct.oracle import qft_direct", ["qolct.oracle"]),
], ids=["import-qolct", "import-cli", "synth", "transform", "uncertainty", "verify",
        "oracle"])
def test_each_command_loads_only_its_judges(tmp_path, qft_params, code, loaded):
    sig, new = str(tmp_path / "f.qsig"), str(tmp_path / "new")
    write_signal(sig, synth_gaussian(Grid2D.centered(16, 8.0), 0.5, 0.5))
    code = code.replace("{sig}", sig).replace("{params}", qft_params).replace("{new}", new)
    assert _judges_loaded(code) == loaded


def test_unknown_suite_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from qolct import cli, verify

    for name in verify._SUITE_FNS:  # no check may run first
        monkeypatch.setitem(verify._SUITE_FNS, name, lambda seed: pytest.fail("a check ran"))
    report = tmp_path / "v.json"
    assert cli.main(["verify", "nosuch", "--json", str(report)]) == 2
    assert (f"unknown suite 'nosuch'; known: all, {', '.join(verify._SUITE_FNS)}"
            in capsys.readouterr().err)
    assert not report.exists()


def test_uncertainty_subcommand(tmp_path, qft_params):
    sig = str(tmp_path / "f.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "16",
            "--alpha1", "0.5", "--alpha2", "0.5", "--out", sig, check=True)

    out = str(tmp_path / "h.json")
    run_cli("uncertainty", "--in", sig, "--params", qft_params,
            "--which", "heisenberg", "--json", out, check=True)
    doc = json.loads((tmp_path / "h.json").read_text())
    assert abs(doc["axes"][0]["relative_gap"]) <= 1e-2  # classical minimizer

    out = str(tmp_path / "p.json")
    tsv = str(tmp_path / "p.tsv")
    run_cli("uncertainty", "--in", sig, "--params", qft_params,
            "--which", "pitt", "--alpha", "0", "--json", out, "--tsv", tsv,
            check=True)
    doc = json.loads((tmp_path / "p.json").read_text())
    assert abs(doc["slack"]) <= 1e-6 * doc["rhs"]
    rows = [line.split("\t") for line in
            (tmp_path / "p.tsv").read_text().strip().splitlines()]
    assert rows[0] == ["alpha", "lhs", "rhs", "slack"]
    assert len(rows) == 9  # header + alpha sweep 0..1.75

    out = str(tmp_path / "l.json")
    run_cli("uncertainty", "--in", sig, "--params", qft_params,
            "--which", "logup", "--json", out, check=True)
    doc = json.loads((tmp_path / "l.json").read_text())
    assert doc["A"] == pytest.approx(-1.2703628454614782, abs=1e-12)
    assert doc["slack"] >= -1e-5 * doc["energy"]

    # pitt/logup reject non-(i, j) axes with a usage error
    tilted = tmp_path / "tilted.json"
    tilted.write_text('{"A1": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                      '"A2": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                      '"lambda": [1,1,0], "mu": [0,1,0]}')
    proc = run_cli("uncertainty", "--in", sig, "--params", str(tilted),
                   "--which", "logup")
    assert proc.returncode == 2

    out = str(tmp_path / "b.json")
    run_cli("uncertainty", "--in", sig, "--params", qft_params,
            "--which", "beurling", "--d", "4", "--json", out, check=True)
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["growth_ratio"] > 1.0


def test_uncertainty_hardy_tsv(tmp_path, qft_params):
    sig = str(tmp_path / "f.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "16",
            "--alpha1", "0.5", "--alpha2", "0.5", "--out", sig, check=True)
    out = str(tmp_path / "hd.json")
    tsv = str(tmp_path / "hd.tsv")
    run_cli("uncertainty", "--in", sig, "--params", qft_params,
            "--which", "hardy", "--json", out, "--tsv", tsv, check=True)
    doc = json.loads((tmp_path / "hd.json").read_text())
    assert doc["product"] == pytest.approx(0.25, abs=1e-3)
    lines = (tmp_path / "hd.tsv").read_text().strip().splitlines()
    assert lines[0] == "domain\tr2\tlog_modulus"
    assert any(line.startswith("transform\t") for line in lines[1:])


_UNCERTAINTY_REPORTS = ("beurling", "hardy", "heisenberg", "logup", "pitt")


def _count_report_work(monkeypatch) -> dict:
    """Count the forwards, the engine calls they make and the reports'
    derivatives, from here on."""
    from qolct import olct, uncertainty

    calls = {"qolct_forward": 0, "_planes_ft": 0, "partial_derivative": 0}
    for module, name in ((olct, "qolct_forward"), (olct, "_planes_ft"),
                         (uncertainty, "partial_derivative")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("which, tsv", [
    *(pytest.param(which, False, id=which) for which in _UNCERTAINTY_REPORTS),
    *(pytest.param(which, True, id=f"{which}-tsv") for which in _UNCERTAINTY_REPORTS)])
def test_uncertainty_computes_only_what_it_prints(tmp_path, qft_params,
                                                  monkeypatch, which, tsv):
    # one forward, one engine call, per command, --tsv or not: every figure
    # after the first reads the kept analysis, and Hardy reads the forward
    # kept beside it; the Heisenberg axes take one derivative each
    from qolct import cli

    calls = _count_report_work(monkeypatch)
    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(64, 16.0), 0.5, 0.5))
    out = str(tmp_path / "u.json")
    tsv_args = ["--tsv", str(tmp_path / "u.tsv")] if tsv else []
    assert cli.main(["uncertainty", "--in", sig, "--params", qft_params,
                     "--which", which, "--json", out, *tsv_args]) == 0
    heisenberg = which == "heisenberg"
    assert calls == {"qolct_forward": 1, "_planes_ft": 1,
                     "partial_derivative": 2 * heisenberg}


@pytest.mark.parametrize("hardy_first", [False, True], ids=["heisenberg-first",
                                                             "hardy-first"])
def test_heisenberg_and_hardy_share_one_forward(monkeypatch, hardy_first):
    # in one process, in either order, Heisenberg and Hardy on one pair make
    # one forward between them; a new plan or a new signal makes one more
    from qolct.uncertainty import hardy_report, heisenberg_report

    g = Grid2D.centered(64, 16.0)
    f = synth_gaussian(g, 0.5, 0.7)
    plan = qolct.QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=g)
    calls = _count_report_work(monkeypatch)

    def both(f, plan):
        reports = [lambda: heisenberg_report(f, plan, 1), lambda: hardy_report(f, plan)]
        return [report() for report in (reversed(reports) if hardy_first else reports)]

    for forwards, signal, pair_plan in ((1, f, plan), (1, f, plan),
                                        (2, f, replace(plan, A1=replace(plan.A1, tau=0.25))),
                                        (3, QField(g, f.samples.copy()), plan)):
        both(signal, pair_plan)
        assert calls["qolct_forward"] == calls["_planes_ft"] == forwards


def test_beurling_groups_each_grid_by_radius_once(tmp_path, qft_params, monkeypatch):
    # the four-radius TSV sums both sides per distinct radius at every
    # radius; the grouping (np.unique over every sample) runs once per grid,
    # here a grid no other test groups
    from qolct import cli

    calls = []

    def spy(*args, _real=np.unique, **kwargs):
        calls.append(1)
        return _real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(40, 15.0), 0.5, 0.5))
    tsv = tmp_path / "b.tsv"
    assert cli.main(["uncertainty", "--in", sig, "--params", qft_params,
                     "--which", "beurling", "--json", str(tmp_path / "b.json"),
                     "--tsv", str(tsv)]) == 0
    assert len(tsv.read_text().splitlines()) == 5  # a header and four radii
    assert len(calls) == 2  # the t-grid and the v-grid


def test_uncertainty_rejects_overflowing_signal_energy(tmp_path, qft_params):
    # |f|^2 of a 1e300 gaussian overflows: every report that reads the
    # analysis exits 4 before any transform; Hardy fits log|f| and runs
    sig = str(tmp_path / "big.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "16", "--beta11", "1e300",
            "--out", sig, check=True)
    for which in ("heisenberg", "pitt", "logup", "beurling"):
        out = tmp_path / f"{which}.json"
        proc = run_cli("uncertainty", "--in", sig, "--params", qft_params,
                       "--which", which, "--json", str(out))
        assert proc.returncode == 4, (which, proc.stderr)
        assert "overflows" in proc.stderr, which
        assert "Traceback" not in proc.stderr, which
        assert "RuntimeWarning" not in proc.stderr, which
        assert not out.exists(), which
    run_cli("uncertainty", "--in", sig, "--params", qft_params, "--which", "hardy",
            "--json", str(tmp_path / "hardy.json"), check=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uncertainty_rejects_underflowing_signal_energy(tmp_path, capsys, qft_params):
    # |f|^2 of a 1e-160 gaussian is subnormal: every report that reads the
    # analysis exits 4, where it printed zeros (lhs = rhs = gap = 0)
    from qolct import cli

    sig = str(tmp_path / "tiny.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "16", "--beta11", "1e-160",
            "--out", sig, check=True)
    out = tmp_path / "u.json"
    for which in ("heisenberg", "pitt", "logup", "beurling"):
        assert cli.main(["uncertainty", "--in", sig, "--params", qft_params,
                         "--which", which, "--json", str(out)]) == 4, which
        assert "signal energy underflows" in capsys.readouterr().err, which
        assert not out.exists(), which


def test_heisenberg_rejects_overflowing_bound(tmp_path, general_params):
    # the energy of a 1e140 gaussian is finite but its square is not
    sig = str(tmp_path / "big.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "16", "--beta11", "1e140",
            "--out", sig, check=True)
    out, tsv = tmp_path / "h.json", tmp_path / "h.tsv"
    for extra in ((), ("--tsv", str(tsv))):
        proc = run_cli("uncertainty", "--in", sig, "--params", general_params,
                       "--which", "heisenberg", "--json", str(out), *extra)
        assert proc.returncode == 4, proc.stderr
        assert "overflows the largest float" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not out.exists() and not tsv.exists()


def test_heisenberg_rejects_an_axis_too_short_to_differentiate(tmp_path, qft_params):
    # four samples along axis 2 are too few for the covariance's derivative:
    # a numerical precondition (exit 4), with no JSON or TSV left behind
    sig = str(tmp_path / "short.qsig")
    write_signal(sig, synth_gaussian(Grid2D(64, 4, 0.0, 0.0, 0.25, 1.0), 0.5, 0.1))
    out, tsv = tmp_path / "h.json", tmp_path / "h.tsv"
    proc = run_cli("uncertainty", "--in", sig, "--params", qft_params,
                   "--which", "heisenberg", "--json", str(out), "--tsv", str(tsv))
    assert proc.returncode == 4, proc.stderr
    assert "axis 2 needs >= 5 samples, has 4" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists() and not tsv.exists()


def test_transform_rejects_overflowing_sidecar(tmp_path, qft_params):
    # the transform of a 1e300 gaussian is finite but its L2 norm is not:
    # nothing is written, neither the signal nor its sidecar
    sig = str(tmp_path / "big.qsig")
    run_cli("synth", "gaussian", "--n", "64", "--extent", "16", "--beta11", "1e300",
            "--out", sig, check=True)
    for extra in ((), ("--inverse",)):
        out = tmp_path / "o.qsig"
        proc = run_cli("transform", "--in", sig, "--params", qft_params,
                       "--out", str(out), *extra)
        assert proc.returncode == 4, (extra, proc.stderr)
        assert "overflow the largest float" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not out.exists() and not (tmp_path / "o.qsig.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transform_sums_a_finite_norm_near_the_float_limit(tmp_path, capsys, qft_params):
    # a random-sign 64^2 field of energy 5e307 on extent 16: its squares sum
    # past the largest float before the 1/16 cell scales them back; both
    # sidecars read as they do for the same file scaled by 2^-500
    from qolct import cli

    g = Grid2D.centered(64, 16.0)
    signs = np.random.default_rng(7).choice([-1.0, 1.0], size=(64, 64, 4))
    samples = signs * math.sqrt(5e307 / 1024)
    ratio, distance = {}, {}
    for name, exponent in (("big", 0), ("small", -500)):
        sig, fwd, back = (str(tmp_path / f"{name}{s}.qsig") for s in ("", "-F", "-back"))
        write_signal(sig, QField(g, np.ldexp(samples, exponent)))
        assert cli.main(["transform", "--in", sig, "--params", qft_params,
                         "--out", fwd]) == 0, capsys.readouterr().err
        ratio[name] = json.loads(open(fwd + ".json").read())["plancherel_ratio"]
        assert cli.main(["transform", "--in", fwd, "--params", qft_params, "--inverse",
                         "--reference", sig, "--out", back]) == 0, capsys.readouterr().err
        distance[name] = json.loads(open(back + ".json").read())[
            "l2_rel_distance_to_reference"]
    assert abs(ratio["big"] - 1.0) <= 1e-12 and ratio["big"] == ratio["small"]
    assert 0.0 < distance["big"] == distance["small"] <= 1e-12


def test_degenerate_axis_needs_positive_d(tmp_path, capsys):
    # b = 0 with d < 0 has no derived output grid: a usage error, not a crash
    from qolct import cli

    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(32, 16.0), 0.5, 0.5))
    params = tmp_path / "p.json"
    params.write_text('{"A1": {"a": -1, "b": 0, "c": 0.5, "d": -1}, '
                      '"A2": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                      '"lambda": [1,0,0], "mu": [0,1,0]}')
    for argv in (["transform", "--out", str(tmp_path / "o.qsig")],
                 ["uncertainty", "--which", "hardy"]):
        assert cli.main([*argv, "--in", sig, "--params", str(params)]) == 2, argv
        assert "degenerate axis needs d > 0" in capsys.readouterr().err, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.qsig", "p.json"]


def test_transform_rejects_a_one_sample_b_zero_axis(tmp_path):
    # a b = 0 axis of one sample has no spline: a plan outside its bounds
    # (exit 4), refused before any transform, with nothing written
    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D(1, 8, 0.0, 0.0, 1.0, 1.0), 0.5, 0.5))
    params = tmp_path / "b1zero.json"
    params.write_text('{"A1": {"a": 1, "b": 0, "c": 0.3, "d": 1}, '
                      '"A2": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                      '"lambda": [1,0,0], "mu": [0,1,0]}')
    out = tmp_path / "o.qsig"
    proc = run_cli("transform", "--in", sig, "--params", str(params), "--out", str(out))
    assert proc.returncode == 4, proc.stderr
    assert "axis 1: a b = 0 axis needs at least 2 samples" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b1zero.json", "f.qsig"]



def test_uncertainty_rejects_b_zero_plans(tmp_path):
    # every report needs v = u/b: a b1 = 0 plan is a usage error, not a crash
    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(32, 16.0), 0.5, 0.5))
    params = tmp_path / "b1zero.json"
    params.write_text('{"A1": {"a": 1, "b": 0, "c": 0.5, "d": 1, "tau": 0.25}, '
                      '"A2": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                      '"lambda": [1,0,0], "mu": [0,1,0]}')
    for which in ("heisenberg", "hardy", "pitt", "logup", "beurling"):
        proc = run_cli("uncertainty", "--in", sig, "--params", str(params),
                       "--which", which)
        assert proc.returncode == 2, (which, proc.stderr)
        assert "require b > 0" in proc.stderr, which
        assert "Traceback" not in proc.stderr, which
        assert "RuntimeWarning" not in proc.stderr, which


def test_inverse_rejects_b_zero_plans(tmp_path):
    # the inverse has no b = 0 branch: say so, whatever the substitution hits
    sig = str(tmp_path / "F.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(32, 16.0), 0.5, 0.5))
    params = tmp_path / "b1zero.json"
    params.write_text('{"A1": {"a": 1, "b": 0, "c": 0.5, "d": 1, "tau": 0.25}, '
                      '"A2": {"a": 0, "b": 1, "c": -1, "d": 0}, '
                      '"lambda": [1,0,0], "mu": [0,1,0]}')
    proc = run_cli("transform", "--in", sig, "--params", str(params), "--inverse",
                   "--out", str(tmp_path / "f.qsig"))
    assert proc.returncode == 2, proc.stderr
    assert "require b > 0" in proc.stderr


@pytest.mark.parametrize("tsv", [False, True])
def test_beurling_overflow_exit_code(tmp_path, qft_params, tsv):
    # at 256^2 the radius 100 (and with --tsv, 3/4 of it) passes
    # ln(max float) in |t||v|: rejected before any exp, nothing written
    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(256, 16.0), 0.5, 0.5))
    out = tmp_path / "b.json"
    tsv_args = ["--tsv", str(tmp_path / "b.tsv")] if tsv else []
    proc = run_cli("uncertainty", "--in", sig, "--params", qft_params,
                   "--which", "beurling", "--radius", "100", "--json", str(out),
                   *tsv_args)
    assert proc.returncode == 4
    assert "ln(max float) = 709.78" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists() and not (tmp_path / "b.tsv").exists()


@pytest.mark.parametrize("radius", ["-5", "0"])
def test_beurling_rejects_a_radius_that_is_not_positive(tmp_path, qft_params, capsys,
                                                         radius):
    from qolct import cli

    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(32, 16.0), 0.5, 0.5))
    out = tmp_path / "b.json"
    assert cli.main(["uncertainty", "--in", sig, "--params", qft_params,
                     "--which", "beurling", "--radius", radius,
                     "--json", str(out)]) == 2
    assert "--radius must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_pitt_rejects_non_ij_axes(tmp_path):
    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(32, 16.0), 0.5, 0.5))
    params = tmp_path / "ik.json"
    A = QFT_CASE
    write_params(params, TransformParams(A, A, UNIT_I, UNIT_K))
    proc = run_cli("uncertainty", "--in", sig, "--params", str(params),
                   "--which", "pitt")
    assert proc.returncode == 2
    assert "lam=i, mu=j" in proc.stderr


def test_chirped_synth_and_csv_transform(tmp_path, qft_params):
    out = str(tmp_path / "cg.qsig")
    run_cli("synth", "chirped-gaussian", "--n", "32", "--extent", "12",
            "--alpha1", "0.8", "--alpha2", "0.8", "--chirp1", "0.4",
            "--chirp2", "-0.2", "--out", out, check=True)
    got = read_signal(out)
    g = Grid2D.centered(32, 12.0)
    want = apply_chirp(synth_gaussian(g, 0.8, 0.8),
                       UNIT_I, 0.0, 0.4, UNIT_J, 0.0, -0.2)
    assert np.abs(got.samples - want.samples).max() <= 1e-15

    csv = tmp_path / "sig.csv"
    t = np.linspace(-3.5, 3.5, 8)
    lines = ["t1,t2,q0,q1,q2,q3"]
    for a in t:
        for b in t:
            lines.append(f"{a},{b},{np.exp(-a*a-b*b)},0,0,0")
    csv.write_text("\n".join(lines) + "\n")
    run_cli("transform", "--in", str(csv), "--csv", "--params", qft_params,
            "--out", str(tmp_path / "o.qsig"), check=True)


def test_inverse_lands_on_the_reference_grid(tmp_path, capsys):
    # at extent 14 the t-grid derived back from this b's u-grid misses the
    # signal's spacing by 1 ulp: a reference that close is the inverse's grid
    from qolct import QolctPlan, cli

    A = OffsetParams(1.0, 1.5429003725608816, 0.0, 1.0)
    params = str(tmp_path / "p.json")
    write_params(params, TransformParams(A, A, UNIT_I, UNIT_J))
    sig, fwd, back = (str(tmp_path / name) for name in ("f.qsig", "F.qsig", "back.qsig"))
    grid = Grid2D.centered(128, 14.0)
    write_signal(sig, synth_gaussian(grid, 1.0, 1.0))
    assert cli.main(["transform", "--in", sig, "--params", params, "--out", fwd]) == 0
    assert QolctPlan.derived_output_grid(A, A, read_signal(fwd).grid) != grid
    assert cli.main(["transform", "--in", fwd, "--params", params, "--inverse",
                     "--reference", sig, "--out", back]) == 0
    assert read_signal(back).grid == grid
    sidecar = json.loads((tmp_path / "back.qsig.json").read_text())
    assert sidecar["l2_rel_distance_to_reference"] <= 1e-7

    # any other grid is rejected before anything is computed or written
    moved = str(tmp_path / "moved.qsig")
    write_signal(moved, synth_gaussian(Grid2D.centered(128, 14.0, (0.5, 0.0)), 1.0, 1.0))
    out = tmp_path / "o.qsig"
    for argv in (["--in", fwd, "--inverse", "--reference", moved],
                 ["--in", sig, "--reference", sig]):
        assert cli.main(["transform", *argv, "--params", params, "--out", str(out)]) == 2
        assert "--reference grid does not match the output grid" in capsys.readouterr().err
        assert not out.exists()


_QFT_MATRIX = {"a": 0, "b": 1, "c": -1, "d": 0}
_PARAMS = {"A1": _QFT_MATRIX, "A2": _QFT_MATRIX, "lambda": [1, 0, 0], "mu": [0, 1, 0]}


@pytest.mark.parametrize("text, message", [
    ("null", "expected a JSON object, got NoneType"),
    ("3", "expected a JSON object, got int"),
    (json.dumps(list(_PARAMS)), "expected a JSON object, got list"),
    ('{"A1": ', "invalid JSON"),
    (json.dumps({k: v for k, v in _PARAMS.items() if k != "mu"}), "missing key 'mu'"),
    (json.dumps({**_PARAMS, "lambda": "100"}), "lambda: expected a list of three numbers"),
    (json.dumps({**_PARAMS, "mu": [0, 1]}), "mu: expected a list of three numbers"),
    (json.dumps({**_PARAMS, "mu": [True, 0, 0]}), "mu: expected a list of three numbers"),
    (json.dumps({**_PARAMS, "A1": {"a": 0, "b": 1, "c": -1}}), "A1: expected keys"),
    (json.dumps({**_PARAMS, "A2": {**_QFT_MATRIX, "b": "x"}}), "A2: expected keys"),
    (json.dumps({**_PARAMS, "A1": {**_QFT_MATRIX, "a": "0"}}), "A1: expected keys"),
    (json.dumps({**_PARAMS, "A1": {**_QFT_MATRIX, "b": True}}), "A1: expected keys"),
    (json.dumps({**_PARAMS, "A2": {**_QFT_MATRIX, "tau": "0.5"}}), "A2: expected keys"),
    (json.dumps({**_PARAMS, "A2": {**_QFT_MATRIX, "eta": 10 ** 400}}), "A2: expected keys"),
    (json.dumps({**_PARAMS, "mu": [0, 10 ** 400, 0]}), "mu: expected a list of three numbers"),
], ids=["null", "number", "key-list", "invalid-json", "missing-key", "axis-string",
        "axis-two-numbers", "axis-bool", "matrix-missing-entry", "matrix-entry-text",
        "matrix-entry-number-string", "matrix-entry-bool", "offset-string",
        "offset-past-float-range", "axis-past-float-range"])
def test_transform_rejects_malformed_parameter_files(tmp_path, capsys, text, message):
    from qolct import cli

    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(16, 8.0), 1.0, 1.0))
    params = tmp_path / "p.json"
    params.write_text(text)
    out = tmp_path / "o.qsig"
    assert cli.main(["transform", "--in", sig, "--params", str(params),
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("axis, unit", [([1e200, 1e200, 0], [0.5 ** 0.5, 0.5 ** 0.5, 0.0]),
                                        ([1e-320, 0, 0], [1.0, 0.0, 0.0])])
def test_transform_normalizes_every_finite_nonzero_axis(tmp_path, axis, unit):
    from qolct import cli

    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(16, 8.0), 1.0, 1.0))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({**_PARAMS, "lambda": axis}))
    out = tmp_path / "o.qsig"
    assert cli.main(["transform", "--in", sig, "--params", str(params),
                     "--out", str(out)]) == 0
    lam = json.loads((tmp_path / "o.qsig.json").read_text())["params"]["lambda"]
    assert lam == pytest.approx(unit, rel=2e-16, abs=0.0)


#: parameter files whose kernel phase overflows on a b > 0 axis 1 of a 32^2 grid
_OVERFLOWING_PHASE = {
    "tau": {**_PARAMS, "A1": {**_QFT_MATRIX, "tau": 1e300}},
    "b": {**_PARAMS, "A1": {"a": 0, "b": 1e300, "c": -1e-300, "d": 0}},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("which", ["transform", "heisenberg", "hardy", "pitt",
                                   "logup", "beurling"])
@pytest.mark.parametrize("name", list(_OVERFLOWING_PHASE))
def test_an_overflowing_kernel_phase_exits_4(tmp_path, capsys, name, which):
    # rejected where the factors are built, naming the axis: no NaN transform,
    # no invalid JSON, nothing written
    from qolct import cli

    sig = str(tmp_path / "f.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(32, 16.0), 0.5, 0.5))
    params = tmp_path / "p.json"
    params.write_text(json.dumps(_OVERFLOWING_PHASE[name]))
    out = tmp_path / "out"
    argv = ["--in", sig, "--params", str(params)]
    if which == "transform":
        argv = ["transform", *argv, "--out", str(out)]
    else:
        argv = ["uncertainty", *argv, "--which", which, "--json", str(out),
                "--tsv", str(tmp_path / "out.tsv")]
    assert cli.main(argv) == 4
    assert "axis 1: a kernel phase overflows" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.qsig", "p.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uncertainty_rejects_a_non_finite_figure(tmp_path, capsys, qft_params):
    # the |t|^1.9-weighted energy of a 1e153 gaussian overflows: exit 4 names
    # the figures, and neither the JSON nor the TSV is written
    from qolct import cli

    sig = str(tmp_path / "big.qsig")
    write_signal(sig, synth_gaussian(Grid2D.centered(64, 16.0), 1.0, 1.0, (1e153, 0.0)))
    out, tsv = tmp_path / "p.json", tmp_path / "p.tsv"
    assert cli.main(["uncertainty", "--in", sig, "--params", qft_params,
                     "--which", "pitt", "--alpha", "1.9", "--json", str(out),
                     "--tsv", str(tsv)]) == 4
    assert "rhs, slack: not finite" in capsys.readouterr().err
    assert not out.exists() and not tsv.exists()


def test_json_finiteness_check_names_nested_keys():
    from qolct import cli
    from qolct.qft import PlanViolationError

    assert cli._strict_json({"a": [1.0, {"b": 2}]}) == \
        json.dumps({"a": [1.0, {"b": 2}]}, indent=2, sort_keys=True)
    with pytest.raises(PlanViolationError, match=r"^a\[1\]\.b, c: not finite"):
        cli._strict_json({"a": [1.0, {"b": math.inf}], "c": math.nan, "d": None})


def _csv(points, value="1"):
    return "t1,t2,q0,q1,q2,q3\n" + "".join(f"{a},{b},{value},0,0,0\n"
                                           for a, b in points)


#: a malformed signal file per input check of the QSIG1 and CSV readers:
#: its content and the message it must draw
_BAD_SIGNALS = {
    "short.qsig": (MAGIC + bytes(10), "truncated header"),
    "empty.csv": ("", "empty CSV"),
    "columns.csv": ("t1,t2,q0,q1,q2,q3\n0,0,1,0,0\n", "columns.csv:2: expected 6 columns"),
    "text.csv": (_csv([(0, 0), (0, 1)], "one"), "text.csv:2: non-numeric value"),
    "header.csv": (_csv([]), "no data rows"),
    "line.csv": (_csv([(0, 0), (0, 1)]), "need at least 2 distinct t1 values"),
    "uneven.csv": (_csv([(a, b) for a in (0, 1, 3) for b in (0, 1)]),
                   "t1 coordinates are not uniformly spaced"),
    "holes.csv": (_csv([(0, 0), (0, 0), (1, 0), (1, 1)]),
                  "grid has missing (t1, t2) combinations"),
}


@pytest.mark.parametrize("name", list(_BAD_SIGNALS))
def test_transform_rejects_malformed_signal_files(tmp_path, capsys, qft_params, name):
    from qolct import cli

    content, message = _BAD_SIGNALS[name]
    sig = tmp_path / name
    if isinstance(content, bytes):
        sig.write_bytes(content)
    else:
        sig.write_text(content)
    out = tmp_path / "o.qsig"
    csv_flag = ["--csv"] if name.endswith(".csv") else []
    assert cli.main(["transform", "--in", str(sig), *csv_flag, "--params", qft_params,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and message in err
    assert not out.exists()
