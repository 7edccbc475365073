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
from fock_toeplitz.cli import main
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
        assert csv_lines[0] == "s,j,k,abs_phi,abs_psi,abs_product,matrix_discrepancy"
        assert len(csv_lines) == 1 + 6  # k = 0..5

    def test_constant_u_inconclusive(self, tmp_path):
        text = CONFIG_PAIR.format(s=0.0, N=8, k_max=5, out=tmp_path / "out").replace(
            "power: 2", "power: 0"
        )
        config = write(tmp_path, "c.yaml", text)
        assert main(["criterion", "--config", str(config), "--quiet"]) == 0
        payload = json.loads((tmp_path / "out" / "criterion_s0.json").read_text())
        assert payload["verdict"]["kind"] == "inconclusive"
        assert payload["verdict"]["reason"] == "u constant"

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
        # load_config accepts N = k_max + j_max + 2 = 14, but cross-checking
        # every cell needs N >= k_max + 2*max|j| + 1 = 15 for the j = 2 mode
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

    def test_n_above_cap_exits_2(self, tmp_path, capsys):
        config = write(
            tmp_path, "c.yaml", CONFIG_PAIR.format(s=0.0, N=200, k_max=5, out=tmp_path / "out")
        )
        assert main(["criterion", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "'N'" in err and "160" in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_psi_exits_1(self, tmp_path, capsys):
        # Psi_1(k+s) = Gamma((2k + 3 + 2s + 1)/2) / (2 pi) leaves double range
        # at s = 200; the report stores raw Psi, so the run is refused
        text = """\
s_values: [200]
u:
  name: u
  modes:
    - {j: 0, kind: polynomial, coefficients: [0.5, -0.3, 1.0]}
v:
  name: v
  modes:
    - {j: 1, kind: monomial, power: 1}
N: 30
k_max: 20
j_max: 1
output: {directory: OUT}
""".replace("OUT", str(tmp_path / "out"))
        config = write(tmp_path, "c.yaml", text)
        assert main(["criterion", "--config", str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Psi_1" in err and "s=200" in err
        assert "Infinity" not in err and "quadrature" not in err
        assert not (tmp_path / "out").exists()

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
