import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fock_toeplitz
import fock_toeplitz.special_functions as special_functions
from fock_toeplitz.cli import _s_tag, main
from fock_toeplitz.symbols import RadialProfile, SymbolSpec, sample_polar

CONFIG_MATRIX = """\
s_values: [0.0]
u:
  name: one
  modes:
    - {{j: 0, kind: monomial, power: 0}}
N: 4
k_max: 1
j_max: 1
output:
  directory: {out}
  formats: [json, csv]
"""

CONFIG_PAIR = """\
s_values: [{s}]
u:
  name: abs2
  modes:
    - {{j: 0, kind: monomial, power: 2}}
v:
  name: z
  modes:
    - {{j: 1, kind: monomial, power: 1}}
N: {N}
k_max: {k_max}
j_max: 1
output:
  directory: {out}
  formats: [json, csv]
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_matrix_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "row,col,re,im"
    size = int(math.isqrt(len(lines) - 1))
    matrix = np.zeros((size, size), dtype=complex)
    for line in lines[1:]:
        row, col, re, im = line.split(",")
        matrix[int(row), int(col)] = complex(float(re), float(im))
    return matrix


class TestMatrixCommand:
    def test_identity_csv(self, tmp_path):
        config = write(tmp_path, "c.yaml", CONFIG_MATRIX.format(out=tmp_path / "out"))
        assert main(["matrix", "--config", str(config), "--quiet"]) == 0
        matrix = read_matrix_csv(tmp_path / "out" / "matrix_u_s0.csv")
        np.testing.assert_allclose(matrix, np.eye(4), atol=1e-12)

    def test_diagonal_values(self, tmp_path):
        text = """\
s_values: [0.0]
u:
  name: abs2
  modes:
    - {j: 0, kind: monomial, power: 2}
N: 4
k_max: 1
j_max: 1
output:
  directory: OUT
  formats: [json]
""".replace("OUT", str(tmp_path / "out"))
        config = write(tmp_path, "c.yaml", text)
        assert main(["matrix", "--config", str(config), "--quiet"]) == 0
        payload = json.loads((tmp_path / "out" / "matrix_u_s0.json").read_text())
        assert payload["N"] == 4
        assert payload["exact_band"] == 0
        diag = {(r, c): re for r, c, re, im in payload["entries"] if r == c}
        for k in range(4):
            assert diag[(k, k)] == pytest.approx(k + 1.0, rel=1e-10)

    def test_missing_n_exits_2(self, tmp_path, capsys):
        text = CONFIG_MATRIX.format(out=tmp_path / "out").replace("N: 4\n", "")
        config = write(tmp_path, "c.yaml", text)
        assert main(["matrix", "--config", str(config), "--quiet"]) == 2
        assert "'N'" in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        config = write(
            tmp_path, "c.yaml", CONFIG_MATRIX.format(out=tmp_path / "out") + "bogus: 1\n"
        )
        assert main(["matrix", "--config", str(config), "--quiet"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_no_symbol_exits_2(self, tmp_path):
        text = """\
s_values: [0.0]
N: 4
output: {directory: OUT}
""".replace("OUT", str(tmp_path / "out"))
        config = write(tmp_path, "c.yaml", text)
        assert main(["matrix", "--config", str(config), "--quiet"]) == 2

    def test_n_above_cap_exits_2(self, tmp_path, capsys):
        text = CONFIG_MATRIX.format(out=tmp_path / "out").replace("N: 4\n", "N: 200\n")
        config = write(tmp_path, "c.yaml", text)
        assert main(["matrix", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "'N'" in err and "160" in err
        assert not (tmp_path / "out").exists()

    def test_huge_orders_get_short_file_names(self, tmp_path):
        text = CONFIG_MATRIX.format(out=tmp_path / "out").replace(
            "s_values: [0.0]", "s_values: [1.0e+300, 2.5e+22]"
        )
        config = write(tmp_path, "c.yaml", text)
        assert main(["matrix", "--config", str(config), "--quiet", "--format", "csv"]) == 0
        names = sorted(path.name for path in (tmp_path / "out").iterdir())
        assert names == ["matrix_u_s1e300.csv", "matrix_u_s2p5e22.csv"]

    @pytest.mark.parametrize(
        "s, tag",
        [(0.0, "0"), (1.0, "1"), (2.3, "2p3"), (1e-05, "1em05"), (1e15, "1000000000000000"),
         (2.0**53, "9007199254740992"), (1e16, "1e16"), (2.5e22, "2p5e22"), (1e300, "1e300")],
    )
    def test_s_tags(self, s, tag):
        # tags below 1e16 are those of earlier releases; above, repr's exponent is kept
        assert _s_tag(s) == tag

    @pytest.mark.parametrize("count", [1025, 10**6])
    def test_node_count_above_cap_exits_2(self, tmp_path, capsys, monkeypatch, count):
        def no_nodes(*args):
            raise AssertionError("quadrature nodes formed")

        monkeypatch.setattr(special_functions, "_unit_nodes", no_nodes)
        text = CONFIG_MATRIX.format(out=tmp_path / "out") + f"tolerances: {{node_count: {count}}}\n"
        config = write(tmp_path, "c.yaml", text)
        assert main(["matrix", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "'tolerances.node_count'" in err and f"must not exceed 1024, got {count}" in err
        assert not (tmp_path / "out").exists()
        # the cap itself is accepted
        config.write_text(text.replace(str(count), "1024"))
        assert main(["matrix", "--config", str(config), "--quiet"]) == 0


class TestCommutatorCommand:
    def test_summary_and_matrices(self, tmp_path):
        config = write(
            tmp_path,
            "c.yaml",
            CONFIG_PAIR.format(s=3.0, N=4, k_max=1, out=tmp_path / "out"),
        )
        assert main(["commutator", "--config", str(config), "--quiet"]) == 0
        summary = json.loads((tmp_path / "out" / "commutator_summary.json").read_text())
        assert len(summary) == 1
        row = summary[0]
        # window = N - 1 - band = 2; largest windowed entry sqrt(s + 2) at (2, 1)
        assert row["window"] == 2
        assert row["window_residual"] == pytest.approx(math.sqrt(3.0 + 2.0), rel=1e-10)
        assert (row["argmax_row"], row["argmax_col"]) == (2, 1)
        assert row["commutes"] is False
        matrix = read_matrix_csv(tmp_path / "out" / "commutator_s3.csv")
        assert matrix[1, 0].real == pytest.approx(math.sqrt(3.0 + 1.0), rel=1e-10)

    def test_radial_pair_commutes(self, tmp_path):
        text = """\
s_values: [0.5]
u:
  name: abs2
  modes:
    - {j: 0, kind: monomial, power: 2}
v:
  name: radial_decay
  modes:
    - {j: 0, kind: exp_decay, rate: 1.0}
N: 8
k_max: 2
j_max: 1
output:
  directory: OUT
  formats: [json]
""".replace("OUT", str(tmp_path / "out"))
        config = write(tmp_path, "c.yaml", text)
        assert main(["commutator", "--config", str(config), "--quiet"]) == 0
        summary = json.loads((tmp_path / "out" / "commutator_summary.json").read_text())
        assert summary[0]["commutes"] is True
        assert summary[0]["window_residual"] <= 1e-10

    def test_matrices_byte_identical_and_zero_outside_band(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            text = CONFIG_PAIR.format(s=2.3, N=9, k_max=2, out=out)
            config = write(tmp_path, f"{run}.yaml", text)
            assert main(["commutator", "--config", str(config), "--quiet"]) == 0
            outputs.append([(out / f"commutator_s2p3.{e}").read_bytes() for e in ("csv", "json")])
        assert outputs[0] == outputs[1]
        band = json.loads(outputs[0][1])["exact_band"]
        assert band == 1
        lines = outputs[0][0].decode().splitlines()[1:]
        assert len(lines) == 81
        indices = [tuple(int(i) for i in line.split(",")[:2]) for line in lines]
        outside = [line for line, (row, col) in zip(lines, indices) if abs(row - col) > band]
        assert len(outside) == 81 - 9 - 2 * 8
        assert all(line.endswith(",0.0,0.0") for line in outside)

class TestCriterionCommand:
    def test_nonradial_detection_report(self, tmp_path):
        config = write(
            tmp_path,
            "c.yaml",
            CONFIG_PAIR.format(s=0.0, N=8, k_max=5, out=tmp_path / "out"),
        )
        assert main(["criterion", "--config", str(config), "--quiet"]) == 0
        payload = json.loads((tmp_path / "out" / "criterion_s0.json").read_text())
        assert payload["verdict"]["kind"] == "nonradial_mode_detected"
        assert payload["verdict"]["modes"] == [1]
        csv_lines = (tmp_path / "out" / "criterion_s0.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "s,j,k,abs_phi,abs_psi,abs_product"
        assert len(csv_lines) == 1 + 6  # k = 0..5

    def test_constant_u_inconclusive(self, tmp_path):
        text = CONFIG_PAIR.format(s=0.0, N=8, k_max=5, out=tmp_path / "out").replace(
            "power: 2", "power: 0"
        )
        config = write(tmp_path, "c.yaml", text)
        assert main(["criterion", "--config", str(config), "--quiet"]) == 0
        payload = json.loads((tmp_path / "out" / "criterion_s0.json").read_text())
        assert payload["verdict"]["kind"] == "inconclusive"
        assert payload["verdict"]["reason"] == "u constant or Phi unresolved"

    def test_nonradial_u_rejected(self, tmp_path, capsys):
        text = """\
s_values: [0.0]
u:
  name: z
  modes:
    - {j: 1, kind: monomial, power: 1}
v:
  name: z
  modes:
    - {j: 1, kind: monomial, power: 1}
N: 8
k_max: 5
j_max: 1
output: {directory: OUT}
""".replace("OUT", str(tmp_path / "out"))
        config = write(tmp_path, "c.yaml", text)
        assert main(["criterion", "--config", str(config), "--quiet"]) == 2
        assert "radial" in capsys.readouterr().err

    def test_undersized_truncation_exits_2(self, tmp_path, capsys):
        # cell (j, k) stands for C[k+j, k], which the truncation gives exactly
        # only when N >= k_max + 2*max|j| + 1 = 15 for the j = 2 mode
        text = (
            CONFIG_PAIR.format(s=0.0, N=14, k_max=10, out=tmp_path / "out")
            .replace("j: 1, kind: monomial, power: 1", "j: 2, kind: monomial, power: 2")
            .replace("j_max: 1", "j_max: 2")
        )
        config = write(tmp_path, "c.yaml", text)
        assert main(["criterion", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "N = 14" in err and "k_max = 10" in err and "max|j| = 2" in err
        assert not (tmp_path / "out").exists()

    def test_below_default_k_max_exits_2_naming_the_window(self, tmp_path, capsys):
        # the default k_max = 12 with j = 1 needs N >= 12 + 2*1 + 1 = 15
        text = CONFIG_PAIR.format(s=0.0, N=8, k_max=1, out=tmp_path / "out")
        config = write(tmp_path, "c.yaml", text.replace("k_max: 1\n", ""))
        assert main(["criterion", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "N = 8" in err and "k_max = 12" in err and "max|j| = 1" in err
        assert not (tmp_path / "out").exists()

    def test_n_above_cap_exits_2(self, tmp_path, capsys):
        config = write(
            tmp_path, "c.yaml", CONFIG_PAIR.format(s=0.0, N=200, k_max=5, out=tmp_path / "out")
        )
        assert main(["criterion", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "'N'" in err and "160" in err
        assert not (tmp_path / "out").exists()

    def test_psi_on_the_matrix_scale_and_underflow_refusal(self, tmp_path, capsys):
        # raw Psi_1(k+s) = Gamma((2k + 3 + 2s + 1)/2) / (2 pi) leaves double
        # range at s = 200; the report stores Psi on the matrix's scale, so the
        # run succeeds.  A Gaussian mode that underflows to 0 by s = 2000 is
        # refused rather than dropped from the verdict.
        text = """\
s_values: [S]
u:
  name: u
  modes:
    - {j: 0, kind: polynomial, coefficients: [0.5, -0.3, 1.0]}
v:
  name: v
  modes:
    - {j: 1, kind: monomial, power: 1}
    - {j: -1, kind: gauss_decay, rate: 1.0, scale: 1.0, power: 0}
N: 30
k_max: 20
j_max: 1
output: {directory: OUT}
"""
        for s, code in ((200, 0), (2000, 1)):
            out = tmp_path / f"out{s}"
            config = write(tmp_path, "c.yaml", text.replace("S", str(s)).replace("OUT", str(out)))
            assert main(["criterion", "--config", str(config), "--quiet"]) == code
            err = capsys.readouterr().err
            if code == 0:
                payload = json.loads((out / f"criterion_s{s}.json").read_text())
                assert payload["verdict"]["modes"] == [-1, 1]
            else:
                assert err.startswith("error: entries of symbol 'v' at mode j=-1 underflow to 0 ")
                assert "s=2000" in err
                assert not out.exists()

    def test_byte_identical_reports(self, tmp_path):
        config_a = write(
            tmp_path, "a.yaml", CONFIG_PAIR.format(s=2.3, N=8, k_max=4, out=tmp_path / "out_a")
        )
        config_b = write(
            tmp_path, "b.yaml", CONFIG_PAIR.format(s=2.3, N=8, k_max=4, out=tmp_path / "out_b")
        )
        assert main(["criterion", "--config", str(config_a), "--quiet"]) == 0
        assert main(["criterion", "--config", str(config_b), "--quiet"]) == 0
        name = "criterion_s2p3.json"
        assert (tmp_path / "out_a" / name).read_bytes() == (tmp_path / "out_b" / name).read_bytes()


@pytest.mark.parametrize("command", ["matrix", "commutator", "criterion", "decompose"])
def test_repeated_order_exits_2_naming_both_entries(tmp_path, capsys, command):
    # a repeated order would be built twice and written to the same files
    text = CONFIG_PAIR.format(s="1.0, 1.0, 0.5", N=8, k_max=4, out=tmp_path / "out")
    config = write(tmp_path, "c.yaml", text)
    extra = ["--samples", str(tmp_path / "samples.csv")] if command == "decompose" else []
    assert main([command, "--config", str(config), "--quiet", *extra]) == 2
    err = capsys.readouterr().err
    assert "'s_values[1]'" in err and "repeats s_values[0]" in err
    assert not (tmp_path / "out").exists()


class TestDecomposeCommand:
    @staticmethod
    def sample_csv(tmp_path, spec, radii, n_angles):
        values = sample_polar(spec, radii, n_angles)
        lines = ["r,theta,re,im"]
        for i, r in enumerate(radii):
            for m in range(n_angles):
                theta = 2.0 * math.pi * m / n_angles
                lines.append(
                    f"{float(r)!r},{theta!r},"
                    f"{float(values[i, m].real)!r},{float(values[i, m].imag)!r}"
                )
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def config(self, tmp_path, j_max):
        text = f"""\
s_values: [0.0, 1.0]
N: 16
k_max: 4
j_max: {j_max}
output:
  directory: {tmp_path / "out"}
  formats: [json, csv]
"""
        return write(tmp_path, "c.yaml", text)

    def test_re_z_round_trip(self, tmp_path):
        spec = SymbolSpec.from_modes(
            {1: RadialProfile.polynomial([0.0, 0.5]), -1: RadialProfile.polynomial([0.0, 0.5])}
        )
        radii = np.linspace(0.05, 6.0, 50)
        samples = self.sample_csv(tmp_path, spec, radii, 12)
        config = self.config(tmp_path, j_max=2)
        assert main(
            ["decompose", "--config", str(config), "--samples", str(samples), "--quiet"]
        ) == 0
        payload = json.loads((tmp_path / "out" / "decompose_modes.json").read_text())
        assert payload["mode_indices"] == [-1, 1]
        assert payload["per_sample_error"] <= 1e-10
        assert payload["is_radial"] is False
        assert all(value <= 1e-8 for value in payload["l2_gs_residual"].values())

    def test_radial_symbol(self, tmp_path):
        spec = SymbolSpec.from_modes(
            {
                0: RadialProfile.from_callable(
                    lambda r: np.exp(-np.asarray(r, dtype=float)), 0.0, 1.0
                )
            }
        )
        radii = np.linspace(0.05, 6.0, 50)
        samples = self.sample_csv(tmp_path, spec, radii, 12)
        config = self.config(tmp_path, j_max=2)
        assert main(
            ["decompose", "--config", str(config), "--samples", str(samples), "--quiet"]
        ) == 0
        payload = json.loads((tmp_path / "out" / "decompose_modes.json").read_text())
        assert payload["mode_indices"] == [0]
        assert payload["is_radial"] is True

    def test_aliasing_exits_2(self, tmp_path, capsys):
        spec = SymbolSpec.from_modes({0: RadialProfile.monomial(1.0)})
        radii = np.linspace(0.05, 4.0, 20)
        samples = self.sample_csv(tmp_path, spec, radii, 3)
        config = self.config(tmp_path, j_max=2)
        assert main(
            ["decompose", "--config", str(config), "--samples", str(samples), "--quiet"]
        ) == 2
        assert "M = 3" in capsys.readouterr().err

    def test_malformed_samples_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("r,theta,re,im\n1.0,0.0,1.0\n")
        config = self.config(tmp_path, j_max=2)
        assert main(["decompose", "--config", str(config), "--samples", str(bad), "--quiet"]) == 2

    @pytest.mark.parametrize(
        "case, needle",
        [
            ("repeated row", "repeats line 39"),
            ("nan radius", "r=nan must be finite and >= 0"),
            ("infinite radius", "r=inf must be finite and >= 0"),
            ("negative radius", "r=-0.5 must be finite and >= 0"),
            ("nan value", "theta, re and im must be finite"),
            ("infinite value", "theta, re and im must be finite"),
        ],
    )
    def test_bad_sample_rows_exit_2_naming_the_line(self, tmp_path, capsys, case, needle):
        # line 2 + 12 i + m holds radius i at angle 2 pi m / 12
        spec = SymbolSpec.from_modes({1: RadialProfile.polynomial([0.0, 0.5])})
        samples = self.sample_csv(tmp_path, spec, np.linspace(0.05, 6.0, 50), 12)
        lines = samples.read_text().splitlines()
        bad_line = 2 + 12 * 3 + 2
        if case == "repeated row":
            # radius 3 gets angle 1 twice and angle 2 never
            lines[bad_line - 1] = lines[bad_line - 2]
        elif case.endswith("radius"):
            radius = {"nan": "nan", "infinite": "inf", "negative": "-0.5"}[case.split()[0]]
            bad_line = len(lines) + 1
            lines += [radius + line[line.index(","):] for line in lines[1:13]]
        else:
            r, theta, _, im = lines[bad_line - 1].split(",")
            value = "nan" if case == "nan value" else "-inf"
            lines[bad_line - 1] = ",".join([r, theta, value, im])
        samples.write_text("\n".join(lines) + "\n")
        config = self.config(tmp_path, j_max=2)
        assert main(
            ["decompose", "--config", str(config), "--samples", str(samples), "--quiet"]
        ) == 2
        err = capsys.readouterr().err
        assert f"samples {samples}:{bad_line}: " in err and needle in err
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_runtime_domain_error_exits_1(self, tmp_path, capsys):
        # passes config validation, but the entries of r^400 leave double range
        text = CONFIG_MATRIX.format(out=tmp_path / "out").replace(
            "kind: monomial, power: 0", "kind: monomial, power: 400"
        )
        config = write(tmp_path, "c.yaml", text)
        assert main(["matrix", "--config", str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "mode j=0, column m=0" in err


class TestFormatsAndOverrides:
    def test_format_override(self, tmp_path):
        config = write(tmp_path, "c.yaml", CONFIG_MATRIX.format(out=tmp_path / "out"))
        assert main(
            ["matrix", "--config", str(config), "--quiet", "--format", "csv"]
        ) == 0
        assert (tmp_path / "out" / "matrix_u_s0.csv").exists()
        assert not (tmp_path / "out" / "matrix_u_s0.json").exists()

    def test_out_override(self, tmp_path):
        config = write(tmp_path, "c.yaml", CONFIG_MATRIX.format(out=tmp_path / "out"))
        other = tmp_path / "elsewhere"
        assert main(["matrix", "--config", str(config), "--quiet", "--out", str(other)]) == 0
        assert (other / "matrix_u_s0.csv").exists()


def test_cli_import_leaves_out_scipy_interpolate():
    # scipy.interpolate is only needed by decompose; importing it costs
    # most of the CLI start-up
    src = str(Path(fock_toeplitz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, fock_toeplitz.cli; print('scipy.interpolate' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"


CONFIG_DECAY = """\
s_values: [0.5, 2.0]
u:
  name: u
  modes:
    - {{j: 0, kind: polynomial, coefficients: [0.5, 0.0, 1.0]}}
v:
  name: v
  modes:
    - {{j: 1, kind: exp_decay, rate: 1.3, scale: 1.0}}
    - {{j: -2, kind: gauss_decay, rate: 0.7, scale: -1.5, power: 1}}
N: 24
k_max: 12
j_max: 2
output:
  directory: {out}
  formats: [json, csv]
"""


@pytest.mark.parametrize("command", ["matrix", "criterion"])
def test_cli_run_leaves_out_numpy_ma(tmp_path, command):
    # numpy.ma (imported lazily by np.unique) costs 15-22 ms in every CLI process
    config = write(tmp_path, "c.yaml", CONFIG_DECAY.format(out=tmp_path / "out"))
    src = str(Path(fock_toeplitz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from fock_toeplitz.cli import main; "
        f"code = main([{command!r}, '--config', sys.argv[1], '--quiet']); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(config)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.strip() == "0 False"
    assert any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command", ["matrix", "commutator"])
def test_n_below_default_k_max_builds(tmp_path, command):
    # only criterion reads k_max, so N = 8 with the default k_max = 12 builds
    text = CONFIG_PAIR.format(s=0.0, N=8, k_max=1, out=tmp_path / "out")
    config = write(tmp_path, "c.yaml", text.replace("k_max: 1\n", ""))
    assert main([command, "--config", str(config), "--quiet", "--format", "json"]) == 0
    name = "matrix_u_s0.json" if command == "matrix" else "commutator_s0.json"
    assert json.loads((tmp_path / "out" / name).read_text())["N"] == 8


CONFIG_BASE = """\
s_values: [0.0]
u:
  name: one
  modes:
    - {j: 0, kind: monomial, power: 0}
N: 4
k_max: 1
j_max: 1
"""
MODE = "{j: 0, kind: monomial, power: 0}"


@pytest.mark.parametrize(
    "old, new, needle",
    [
        ("N: 4", "N: four", "'N': expected a number"),
        ("N: 4", "N: true", "'N': expected a number"),
        ("N: 4", "N: 4.5", "'N': expected an integer"),
        ("N: 4", "N: 0", "'N': must be >= 1"),
        ("s_values: [0.0]", "s_values: [.nan]", "'s_values[0]': must be finite"),
        ("s_values: [0.0]", "s_values: [-1.0]", "'s_values[0]': must be >= 0.0"),
        ("s_values: [0.0]", "s_values: []", "'s_values': expected a nonempty list"),
        ("k_max: 1", "k_max: 0", "'k_max': must be >= 1"),
        ("j_max: 1", "j_max: 0", "'j_max': must be >= 1"),
        (MODE, "{j: 0, kind: exp_decay, rate: 0}", "'u.modes[0].rate': must be positive"),
        (MODE, "{j: 0, kind: gauss_decay, rate: -1.0}", "'u.modes[0].rate': must be positive"),
        (MODE, "{j: 0, kind: bessel}", "'u.modes[0].kind': unknown profile kind 'bessel'"),
        (MODE, "{j: 0, kind: monomial, power: -1}", "'u.modes[0].power': must be >= 0.0"),
        (MODE, "{j: 0, kind: polynomial, coefficients: []}", "'u.modes[0].coefficients'"),
        (MODE, "{j: 0, kind: polynomial, coefficients: [[1, 2, 3]]}", "coefficients[0]': expected"),
        (MODE, "{j: 0, kind: polynomial, coefficients: [[1, .inf]]}", "[0][1]': must be finite"),
        (MODE, "{j: x, kind: zero}", "'u.modes[0].j': expected a number"),
        (MODE, "5", "'u.modes[0]': expected a mapping"),
        ("  modes:\n    - " + MODE, "  modes: []", "'u.modes': expected a nonempty list"),
        (MODE, MODE + "\n    - {j: 0, kind: zero}", "'u.modes[1].j': duplicate mode j=0"),
        ("", "v: [1, 2]\n", "'v': expected a mapping"),
        ("N: 4", "N: [4", "is not valid YAML"),
        (None, "- 1\n", "top level must be a mapping"),
        ("", "tolerances: [1]\n", "'tolerances': expected a mapping"),
        ("", "tolerances: {quad_tol: 1}\n", "'tolerances.quad_tol': unknown field"),
        ("", "tolerances: {quad_abs: .inf}\n", "'tolerances.quad_abs': must be finite"),
        ("", "tolerances: {quad_rel: 0}\n", "'tolerances.quad_rel': must be positive"),
        ("", "tolerances: {verdict_multiplier: -3}\n", "'tolerances.verdict_multiplier': must be"),
        ("", "tolerances: {drop_floor: 0}\n", "'tolerances.drop_floor': must be positive"),
        ("", "tolerances: {node_count: 1}\n", "'tolerances.node_count': must be >= 2"),
        ("", "assert_commutation: 'yes'\n", "'assert_commutation': expected true/false"),
        ("", "output: 7\n", "'output': expected a mapping"),
        ("", "output: {formats: []}\n", "'output.formats': expected a nonempty list"),
        ("", "output: {formats: json}\n", "'output.formats': expected a nonempty list"),
        ("", "output: {formats: [json, xml]}\n", "'output.formats[1]': must be one of"),
    ],
)
def test_config_refusals_exit_2_naming_the_field(tmp_path, capsys, monkeypatch, old, new, needle):
    if old is None:
        text = new
    elif old:
        assert old in CONFIG_BASE
        text = CONFIG_BASE.replace(old, new)
    else:
        text = CONFIG_BASE + new
    monkeypatch.chdir(tmp_path)  # the default output directory is ./out
    config = write(tmp_path, "c.yaml", text)
    assert main(["matrix", "--config", str(config), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and needle in err
    assert not (tmp_path / "out").exists()


def test_coefficient_pairs_and_zero_kind(tmp_path):
    # u = 2i + 0.5 r^2 has eigenvalues 2i + 0.5 (s + k + 1); the zero mode adds nothing
    modes = "{j: 0, kind: polynomial, coefficients: [[0.0, 2.0], 0, [0.5, 0]]}"
    text = CONFIG_BASE.replace(MODE, modes + "\n    - {j: 1, kind: zero}")
    config = write(tmp_path, "c.yaml", text + f"output: {{directory: {tmp_path / 'out'}}}\n")
    assert main(["matrix", "--config", str(config), "--quiet"]) == 0
    matrix = read_matrix_csv(tmp_path / "out" / "matrix_u_s0.csv")
    expected = np.diag(2.0j + 0.5 * np.arange(1.0, 5.0))
    np.testing.assert_allclose(matrix, expected, rtol=1e-12, atol=0.0)


def readme_experiment_file() -> str:
    """The YAML block under the README's "Experiment file" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Experiment file"):]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_experiment_file_runs_byte_identically_across_hash_seeds(tmp_path):
    config = write(tmp_path, "experiment.yaml", readme_experiment_file())
    src = str(Path(fock_toeplitz.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = tmp_path / f"out{seed}"
        for command in ("criterion", "matrix"):
            done = subprocess.run(
                [sys.executable, "-m", "fock_toeplitz.cli", command, "--config", str(config),
                 "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert done.returncode == 0, done.stderr
            if command == "criterion":
                verdicts = [line for line in done.stdout.splitlines() if "verdict" in line]
                assert verdicts == [
                    f"s={s}: verdict nonradial_mode_detected([1])" for s in ("0", "0.5", "1", "2.3")
                ]
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(outputs[0]) == 4 * 2 + 4 * 2 * 2  # criterion and matrix (u, v), JSON and CSV
    assert outputs[0] == outputs[1]
