"""Tests for config parsing, manifests, CSV output, and the CLI entry point."""

import csv
import math
import re

import numpy as np
import pytest

import fishbone.cable
import fishbone.cli
import fishbone.experiments
import fishbone.integrate
from fishbone.cli import (
    ConfigError,
    _fmt,
    default_timestep,
    load_config,
    main,
    manifest_text,
    parse_config_text,
    preset_text,
    resolve_config,
    run_simulate,
    run_verify,
    write_energy_csv,
    write_trajectory_csv,
)
from fishbone.dynamics import channel_slices
from fishbone.integrate import Trajectory
from fishbone.spectral import Basis, displayed_to_modal

TOY = """\
meta.name = toy
model.delta = 0.05
model.zeta = 0.05
model.Upsilon = 0.5
model.eps = 0.5
model.kappa = 0.3
basis.L = 3.141592653589793
basis.n_w = 3
basis.n_t = 2
cable.a = 0.2
cable.b = 1
cable.c = 1
integrator.dt = 0.02
integrator.t_end = 2
integrator.sample_every = 0.1
initial.w.1 = 0.1
initial.th.1 = 0.05
"""

DAMPED_LINEAR = """\
meta.name = damped-linear
model.delta = 0.1
model.zeta = 0.05
model.beta = 0.02
model.Upsilon = 0.5
model.Ustream = 2
model.eps = 0.5
model.kappa = 0.3
model.ell = 1.2
model.g = 0.3
basis.n_w = 3
basis.n_t = 2
integrator.dt = 0.01
integrator.t_end = 2
integrator.sample_every = 0.1
initial.w.1 = 0.2
initial.th.1 = 0.1
"""


# cable.b = derive on a hand-set cable, its rest length cable.L0 to follow
CABLE_B_DERIVED = "model.Ac = 0.1\nmodel.Ec = 1e11\ncable.a = 0.2\ncable.b = derive\n"


def write_cfg(tmp_path, text, name="run.cfg", outdir=None):
    if outdir is None:
        outdir = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text + f"output.directory = {outdir}\n")
    return path


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        """Comments and blank lines never reach the key table."""
        flat = parse_config_text("# header\n\nmodel.M = 2 # inline\n")
        assert flat == {"model.M": "2"}

    def test_missing_equals_rejected(self):
        """A line without '=' is reported with its line number."""
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("model.M = 2\nmodel.D 3\n")

    def test_duplicate_key_rejected(self):
        """The same key twice in one file is an error, not a silent override."""
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.M = 2\nmodel.M = 3\n")

    def test_unknown_key_named(self):
        """A misspelled section.key is rejected by its full path."""
        with pytest.raises(ConfigError, match="modle.M"):
            resolve_config({"modle.M": "7198"})
        with pytest.raises(ConfigError, match="model.Q"):
            resolve_config({"model.Q": "1"})

    def test_number_parse_error(self):
        """Non-numeric values name the key and the offending text."""
        with pytest.raises(ConfigError, match="model.M.*abc"):
            resolve_config({"model.M": "abc"})

    @pytest.mark.parametrize(
        "key, raw",
        [("initial.w.1", "nan"), ("initial.all", "1e400"), ("basis.L", "inf"),
         ("integrator.t_end", "inf"), ("sweep.U", "2,-inf")],
    )
    def test_non_finite_rejected(self, key, raw):
        """NaN and infinite numbers are config errors that name the key."""
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            resolve_config({key: raw})

    @pytest.mark.parametrize("key", ["model.L", "output.cadence"])
    def test_one_spelling_per_setting(self, key):
        """The span is basis.L alone and the cadence integrator.sample_every alone."""
        with pytest.raises(ConfigError, match=f"{key}: unknown configuration key"):
            resolve_config({key: "3"})
        assert resolve_config({"basis.L": "3"}).scenario.params.L == 3.0

    def test_section_validation_propagates(self):
        """Bad basis, model, and integrator values surface as config errors."""
        with pytest.raises(ConfigError, match="basis"):
            resolve_config({"basis.n_w": "0"})
        with pytest.raises(ConfigError, match="model"):
            resolve_config({"model.delta": "-1"})
        with pytest.raises(ConfigError, match="integrator: unknown method"):
            resolve_config({"integrator.method": "euler"})
        with pytest.raises(ConfigError, match="integrator"):
            resolve_config({"integrator.dt": "0.1", "integrator.sample_every": "0.01"})

    def test_defaults(self):
        """An empty config resolves to the nondimensional defaults."""
        cfg = resolve_config({})
        assert cfg.scenario.name == "run"
        assert cfg.scenario.params.L == math.pi
        assert (cfg.scenario.basis.n_w, cfg.scenario.basis.n_t) == (10, 4)
        assert cfg.scenario.integrator.dt == 1e-3
        assert cfg.scenario.integrator.t_end == 10.0
        assert np.all(cfg.scenario.initial.pack() == 0.0)


class TestInitialData:
    def test_broadcast_precedence(self):
        """initial.all < initial.<ch>.<mode>, any file order."""
        flat = {"basis.n_w": "3", "basis.n_t": "2", "initial.th.2": "0.5", "initial.all": "0.1"}
        cfg = resolve_config(flat)
        np.testing.assert_allclose(cfg.initial_displayed["w"], [0.1, 0.1, 0.1])
        np.testing.assert_allclose(cfg.initial_displayed["wdot"], [0.1, 0.1, 0.1])
        np.testing.assert_allclose(cfg.initial_displayed["th"], [0.1, 0.5])
        np.testing.assert_allclose(cfg.initial_displayed["thdot"], [0.1, 0.1])

    def test_displayed_to_modal_conversion(self):
        """Stored modal coefficients are sqrt(L/2) times the displayed values."""
        cfg = resolve_config({"basis.L": "2", "initial.w.1": "3"})
        np.testing.assert_allclose(
            cfg.scenario.initial.w[0], displayed_to_modal(3.0, 2.0), rtol=1e-15
        )

    def test_mode_bounds_and_unknown_channel(self):
        """Mode indices are range-checked; unknown channels are named."""
        with pytest.raises(ConfigError, match="initial.w.9"):
            resolve_config({"basis.n_w": "3", "initial.w.9": "1"})
        with pytest.raises(ConfigError, match="initial.w.0"):
            resolve_config({"initial.w.0": "1"})
        with pytest.raises(ConfigError, match="initial.tilt.1"):
            resolve_config({"initial.tilt.1": "1"})


class TestDeriveRules:
    def test_model_derivations(self):
        """D, eps, kappa, S derive from the mechanical table."""
        cfg = resolve_config(
            {
                "model.E": "2e11",
                "model.I": "0.15",
                "model.G": "8e10",
                "model.K": "6e-6",
                "model.J": "5.4",
                "model.A": "1.8",
                "model.D": "derive",
                "model.eps": "derive",
                "model.kappa": "derive",
                "model.S": "derive",
                "basis.L": "800",
            }
        )
        p = cfg.scenario.params
        assert p.D == 2e11 * 0.15
        assert p.eps == 2e11 * 5.4
        assert p.kappa == 8e10 * 6e-6
        assert p.S == 1.8 * 2e11 / (2.0 * 800.0)

    def test_cable_derivations(self):
        """a = Mg/(2H), c = H, and b uses the literal rest length when given."""
        cfg = resolve_config(
            {
                "model.M": "7000",
                "model.g": "9.8",
                "model.H": "4.5e7",
                "model.Ec": "1.8e11",
                "model.Ac": "0.12",
                "cable.a": "derive",
                "cable.b": "derive",
                "cable.c": "derive",
                "cable.L0": "870",
                "basis.L": "853.44",
            }
        )
        geo = cfg.scenario.geometry
        assert geo.a == 7000.0 * 9.8 / (2.0 * 4.5e7)
        assert geo.b == 0.12 * 1.8e11 / 870.0
        assert geo.c == 4.5e7

    def test_derive_prerequisites_named(self):
        """Each derive rule reports exactly which table keys it needs."""
        with pytest.raises(ConfigError, match="model.D: derive requires model.E, model.I"):
            resolve_config({"model.D": "derive"})
        with pytest.raises(ConfigError, match="cable.a: derive requires model.H"):
            resolve_config({"cable.a": "derive"})
        with pytest.raises(ConfigError, match="model.g > 0"):
            resolve_config({"model.H": "4.5e7", "cable.a": "derive"})
        with pytest.raises(ConfigError, match="no derivation rule"):
            resolve_config({"model.M": "derive"})

    def test_cable_needs_shape_when_stiff(self):
        """Nonzero cable stiffness without a rest shape is rejected."""
        with pytest.raises(ConfigError, match="cable.a"):
            resolve_config({"cable.b": "1"})

    def test_derived_timestep(self):
        """integrator.dt = derive resolves the stiffest-period rule."""
        cfg = resolve_config({"integrator.dt": "derive", "basis.n_w": "3", "basis.n_t": "2"})
        expected = default_timestep(cfg.scenario.params, cfg.scenario.basis)
        np.testing.assert_allclose(cfg.scenario.integrator.dt, expected, rtol=1e-15)


class TestManifest:
    def test_manifest_round_trip_fixed_point(self, tmp_path):
        """Resolving a manifest and re-rendering it is byte-identical."""
        path = write_cfg(tmp_path, TOY + "sweep.beta = 0,1e-3\nsweep.U = 2\n")
        cfg = load_config(path)
        text = manifest_text(cfg)
        again = manifest_text(resolve_config(parse_config_text(text)))
        assert text == again

    def test_manifest_reproduces_resolution(self, tmp_path):
        """A manifest reloads to the same parameters, grid, and initial data."""
        path = write_cfg(tmp_path, DAMPED_LINEAR)
        cfg = load_config(path)
        cfg2 = resolve_config(parse_config_text(manifest_text(cfg)))
        assert cfg2.scenario.params == cfg.scenario.params
        assert cfg2.scenario.basis == cfg.scenario.basis
        assert cfg2.scenario.integrator == cfg.scenario.integrator
        np.testing.assert_array_equal(cfg2.scenario.initial.pack(), cfg.scenario.initial.pack())


class TestSimulateOutputs:
    def read_csv(self, path):
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        return rows[0], rows[1:]

    def test_bundle_files_and_headers(self, tmp_path):
        """simulate writes trajectory, energy, and manifest with documented headers to the
        output directory it returns."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, TOY, outdir=out)
        assert run_simulate(path) == out
        assert sorted(p.name for p in out.iterdir()) == ["energy.csv", "manifest.cfg", "trajectory.csv"]
        header, rows = self.read_csv(out / "trajectory.csv")
        assert header == (
            ["t"]
            + [f"w_{j}" for j in (1, 2, 3)]
            + [f"wdot_{j}" for j in (1, 2, 3)]
            + [f"th_{j}" for j in (1, 2)]
            + [f"thdot_{j}" for j in (1, 2)]
        )
        assert len(rows) == 21  # t_end 2 at cadence 0.1
        eheader, erows = self.read_csv(out / "energy.csv")
        assert eheader == ["t", "E", "Eplus", "Efull", "residual"]
        assert len(erows) == 21
        assert all(np.isfinite(float(v)) for v in erows[-1])

    def test_two_sample_run_writes_its_residual(self, tmp_path):
        """sample_every = t_end gives two samples, and energy.csv holds their residual, not nan."""
        out = tmp_path / "out"
        text = TOY.replace("integrator.sample_every = 0.1", "integrator.sample_every = 2")
        run_simulate(write_cfg(tmp_path, text, outdir=out))
        _, erows = self.read_csv(out / "energy.csv")
        residual = [float(row[4]) for row in erows]
        assert len(residual) == 2 and residual[0] == 0.0 and np.isfinite(residual[1])

    def test_run_and_energies_share_one_grid(self, tmp_path, monkeypatch):
        """simulate builds one quadrature grid and hands it to the run and to attach_energies."""
        grids = []
        run, attach = fishbone.experiments.integrate, fishbone.cli.attach_energies
        monkeypatch.setattr(fishbone.experiments, "integrate", lambda *a: grids.append(a[-1]) or run(*a))
        monkeypatch.setattr(fishbone.cli, "attach_energies", lambda *a: grids.append(a[-1]) or attach(*a))
        run_simulate(write_cfg(tmp_path, TOY))
        assert len(grids) == 2 and grids[0] is grids[1]

    @pytest.mark.parametrize("rest_length", ["tabulated"])
    def test_one_grid_per_config(self, tmp_path, monkeypatch, rest_length):
        """simulate on tnb, whose cable.L0 is the tabulated rest length, builds one
        quadrature grid, in load_config: the cable geometry, the run and its energies all
        read it."""
        lines = [
            line for line in preset_text("tnb").splitlines()
            if not line.startswith("output.directory")
        ]
        text = "\n".join(lines).replace("integrator.t_end = 120", "integrator.t_end = 1") + "\n"
        built, grids = [], []
        for module in (fishbone.cli, fishbone.integrate):
            make_grid = module.make_grid
            monkeypatch.setattr(module, "make_grid", lambda basis, make=make_grid: built.append(make(basis)) or built[-1])
        run, attach = fishbone.experiments.integrate, fishbone.cli.attach_energies
        monkeypatch.setattr(fishbone.experiments, "integrate", lambda *a: grids.append(a[-1]) or run(*a))
        monkeypatch.setattr(fishbone.cli, "attach_energies", lambda *a: grids.append(a[-1]) or attach(*a))
        run_simulate(write_cfg(tmp_path, text))
        assert len(built) == 1 and len(grids) == 2 and all(grid is built[0] for grid in grids)

    def test_displayed_amplitudes_in_csv(self, tmp_path):
        """The t = 0 row reports the displayed initial amplitudes."""
        path = write_cfg(tmp_path, TOY)
        header, rows = self.read_csv(run_simulate(path) / "trajectory.csv")
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        np.testing.assert_allclose(float(first["w_1"]), 0.1, rtol=1e-15)
        np.testing.assert_allclose(float(first["th_1"]), 0.05, rtol=1e-15)
        assert float(first["w_2"]) == 0.0

    def test_zero_initial_gives_zero_columns(self, tmp_path):
        """A zero initial state on the flat deck stays identically zero."""
        text = "integrator.dt = 0.05\nintegrator.t_end = 0.5\n"
        path = write_cfg(tmp_path, text)
        _, rows = self.read_csv(run_simulate(path) / "trajectory.csv")
        for row in rows:
            assert all(cell == "0" for cell in row[1:])

    def test_values_round_trip_through_text(self, tmp_path):
        """CSV cells are full-precision decimal forms of the computed floats."""
        path = write_cfg(tmp_path, TOY)
        out = run_simulate(path)
        cfg = load_config(path)
        traj = cfg.scenario.run()
        scale = math.sqrt(2.0 / cfg.scenario.basis.L)
        header, rows = self.read_csv(out / "trajectory.csv")
        np.testing.assert_array_equal(
            np.array([[float(v) for v in row] for row in rows[:5]])[:, 1:4],
            scale * traj.w[:5],
        )

    def test_writers_give_the_fmt_text_of_every_value(self, tmp_path):
        """Each cell is exactly ``_fmt`` of its float, the hard cases included.

        Signed zero, nan, both infinities, the least subnormal, a near-overflow
        and 0.1, each in every column; L = 2 makes the displayed amplitude
        sqrt(2/L) c equal the modal coefficient c.
        """
        values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1]
        table = np.array([np.roll(values, shift) for shift in range(5)]).T
        traj = Trajectory(times=table[:, 0], data=table[:, 1:], n_w=1, n_t=1)
        traj.diagnostics = dict(zip(("E", "Eplus", "Efull", "residual"), table[:, 1:].T))
        want = "".join(",".join(map(_fmt, row)) + "\n" for row in table.tolist())
        write_trajectory_csv(tmp_path / "trajectory.csv", traj, Basis(L=2.0, n_w=1, n_t=1))
        write_energy_csv(tmp_path / "energy.csv", traj)
        assert (tmp_path / "trajectory.csv").read_text() == "t,w_1,wdot_1,th_1,thdot_1\n" + want
        assert (tmp_path / "energy.csv").read_text() == "t,E,Eplus,Efull,residual\n" + want

    def test_rerun_from_manifest_bit_identical(self, tmp_path):
        """Re-running from the manifest reproduces the trajectory CSV exactly."""
        out_a = tmp_path / "a"
        path = write_cfg(tmp_path, TOY, outdir=out_a)
        run_simulate(path)
        manifest = (out_a / "manifest.cfg").read_text()
        out_b = tmp_path / "b"
        rerun_cfg = tmp_path / "rerun.cfg"
        rerun_cfg.write_text(
            manifest.replace(f"output.directory = {out_a}", f"output.directory = {out_b}")
        )
        run_simulate(rerun_cfg)
        for name in ("trajectory.csv", "energy.csv"):
            assert (out_b / name).read_bytes() == (out_a / name).read_bytes()


class TestLinearCommand:
    def test_undamped_spectrum_reports_and_exits_zero(self, tmp_path, capsys):
        """Zero damping prints the Lyapunov-stable spectrum; no closed form."""
        text = "basis.n_w = 3\nbasis.n_t = 2\ninitial.w.1 = 0.1\n"
        path = write_cfg(tmp_path, text)
        assert main(["linear", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stability class: lyapunov_stable" in out
        assert "decay rate (j = 1): 0" in out
        assert "closed form unavailable" in out

    def test_undamped_spectral_abscissa_reads_zero(self, tmp_path, capsys):
        """Undamped roots have real parts 0.0 and -0.0; the abscissa line reads 0, not -0."""
        text = "basis.n_w = 3\nbasis.n_t = 2\nmodel.eps = 0.5\nmodel.kappa = 0.3\ninitial.w.1 = 0.1\n"
        path = write_cfg(tmp_path, text)
        assert main(["linear", str(path)]) == 0
        assert "spectral abscissa: 0\n" in capsys.readouterr().out

    def test_nonlinear_config_needs_flag(self, tmp_path, capsys):
        """A cable/stretching config is refused without --linearize."""
        path = write_cfg(tmp_path, TOY)
        assert main(["linear", str(path)]) == 2
        assert "--linearize" in capsys.readouterr().err
        assert main(["linear", str(path), "--linearize"]) == 0

    def test_roots_printed_for_retained_modes_only(self, tmp_path, capsys):
        """A damped 3+2 basis prints three vertical and two torsional root pairs."""
        path = write_cfg(tmp_path, DAMPED_LINEAR)
        assert main(["linear", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stability class: exponentially_stable" in out
        roots = re.findall(r"[+-]\d\.\d{9}e[+-]\d+[+-]\d\.\d{9}e[+-]\d+j", out)
        assert len(roots) == 2 * (3 + 2)

    def test_damped_closed_form_and_csv(self, tmp_path, capsys):
        """Underdamped parameters print coefficients and can export samples."""
        path = write_cfg(tmp_path, DAMPED_LINEAR)
        csv_path = tmp_path / "closed.csv"
        assert main(["linear", str(path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "closed-form coefficients" in out
        with open(csv_path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "t"
        assert len(rows) == 1 + 21  # t_end 2 at cadence 0.1

    def test_closed_form_csv_with_more_torsional_than_vertical_modes(self, tmp_path, capsys):
        """A damped 2+3 basis exports its closed form like a 3+2 one."""
        text = DAMPED_LINEAR.replace("basis.n_w = 3\nbasis.n_t = 2", "basis.n_w = 2\nbasis.n_t = 3")
        path = write_cfg(tmp_path, text)
        csv_path = tmp_path / "closed.csv"
        assert main(["linear", str(path), "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "w_1", "w_2", "wdot_1", "wdot_2", "th_1", "th_2", "th_3",
                           "thdot_1", "thdot_2", "thdot_3"]
        assert len(rows) == 1 + 21

    def test_closed_form_csv_samples_the_simulate_clock(self, tmp_path, capsys):
        """Where the RK4 step is nudged, the closed form is still sampled at simulate's times."""
        text = DAMPED_LINEAR.replace(
            "integrator.dt = 0.01\nintegrator.t_end = 2\nintegrator.sample_every = 0.1",
            "integrator.dt = 0.003\nintegrator.t_end = 10\nintegrator.sample_every = 0.05",
        )
        path = write_cfg(tmp_path, text)
        csv_path = tmp_path / "closed.csv"
        assert main(["linear", str(path), "--csv", str(csv_path)]) == 0
        assert main(["simulate", str(path)]) == 0
        columns = []
        for table in (csv_path, tmp_path / "out" / "trajectory.csv"):
            with open(table, newline="") as f:
                columns.append([row[0] for row in csv.reader(f)])
        assert len(columns[0]) == 1 + 198  # 3349 steps of 10/3349, sampled every 17th
        assert columns[0] == columns[1]

    def test_resonant_case_exits_three(self, tmp_path, capsys):
        """The secular resonance aborts the CSV export with exit 3."""
        text = (
            "model.ell = 1.7320508075688772\n"
            "model.eps = 0.5\nmodel.kappa = 0.5\n"
            "model.delta = 0.1\nmodel.zeta = 0.1\n"
            "basis.n_w = 2\nbasis.n_t = 1\ninitial.th.1 = 0.1\n"
        )
        path = write_cfg(tmp_path, text)
        csv_path = tmp_path / "closed.csv"
        assert main(["linear", str(path), "--csv", str(csv_path)]) == 3
        assert "linear analysis failed" in capsys.readouterr().err
        assert not csv_path.exists()


class TestVerifyCommand:
    def test_passes_with_modest_sample_count(self, capsys):
        """The randomized suite passes and prints a machine-checkable report."""
        assert run_verify(seed=0, samples=50) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "verdict: pass" in out
        assert "conservation.drift" in out
        assert "oracle.max_rel_err" in out

    def test_zero_samples_still_run_the_oracles(self, capsys):
        """samples = 0 skips only the inequality samples, not the two oracles."""
        assert run_verify(seed=0, samples=0) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out and "verdict: pass" in out
        assert "conservation.drift" in out and "oracle.max_rel_err" in out

    def test_mutated_force_density_fails(self, capsys, monkeypatch):
        """Flipping the restoring-force sign is caught with exit code 4."""
        true_h = fishbone.cable.h_of
        monkeypatch.setattr(
            fishbone.cable, "h_of", lambda u, geo, grid: -true_h(u, geo, grid)
        )
        assert run_verify(seed=0, samples=50) == 4
        out = capsys.readouterr().out
        assert "verdict: fail" in out

    def test_anti_damped_rhs_fails_both_oracles(self, capsys, monkeypatch):
        """An RHS that adds 1e-3 wdot to the vertical acceleration fails both oracles: exit
        code 4, with a worst line each for the energy drift (2.059e-03 measured) and the
        closed-form mismatch (1.082e-03)."""
        true_rhs = fishbone.integrate.make_packed_rhs

        def anti_damped(params, geometry, basis, grid):
            rhs = true_rhs(params, geometry, basis, grid)
            wdot = channel_slices(basis.n_w, basis.n_t).wdot

            def pushed(t, y):
                dy = rhs(t, y)
                dy[wdot] += 1e-3 * y[wdot]
                return dy

            return pushed

        monkeypatch.setattr(fishbone.integrate, "make_packed_rhs", anti_damped)
        assert run_verify(seed=0, samples=0) == 4
        lines = capsys.readouterr().out.splitlines()
        assert "worst: energy drift 2.059e-03 exceeds 1e-6" in lines
        assert "worst: closed-form mismatch 1.082e-03 exceeds 1e-5" in lines
        assert "verdict: fail" in lines

    def test_cli_wiring(self, capsys):
        """The verify subcommand forwards seed and sample count, and reports each once."""
        assert main(["verify", "--seed", "3", "--samples", "25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("seed: 3") == 1 and lines.count("samples: 25") == 1

    def test_negative_samples_exit_two(self, capsys):
        """A negative --samples is refused by the parser with exit 2, before anything runs."""
        with pytest.raises(SystemExit) as info:
            main(["verify", "--samples", "-1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "--samples: must be nonnegative, got -1" in captured.err and captured.out == ""


class TestSweepCommand:
    def test_sweep_writes_summary(self, tmp_path, capsys):
        """sweep classifies the grid and writes the summary CSV."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, TOY + "sweep.beta = 0,1e-3\nsweep.U = 2\n", outdir=out)
        assert main(["sweep", str(path)]) == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["beta", "U", "ratio", "classification", "note"]
        assert len(rows) == 3
        assert {row[3] for row in rows[1:]} <= {"decay", "neutral", "growth"}
        assert "wrote" in capsys.readouterr().out
        assert (out / "manifest.cfg").exists()

    def test_missing_grid_is_config_error(self, tmp_path, capsys):
        """A sweep without its grids exits 2 naming the missing key."""
        path = write_cfg(tmp_path, TOY)
        assert main(["sweep", str(path)]) == 2
        assert "sweep.beta" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [0, 3])
    def test_unretained_mode_exits_two(self, tmp_path, capsys, mode):
        """An old config asking for a mode outside 1..basis.n_t exits 2 on the removed sweep.mode key."""
        path = write_cfg(tmp_path, TOY + f"sweep.beta = 1e-3\nsweep.U = 2\nsweep.mode = {mode}\n")
        assert main(["sweep", str(path)]) == 2
        assert "config error: sweep.mode: unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_basis_without_swept_mode_exits_two(self, tmp_path, capsys):
        """A sweep on a basis without the classified torsional mode exits 2 before any cell runs."""
        text = TOY.replace("basis.n_t = 2", "basis.n_t = 1")
        path = write_cfg(tmp_path, text + "sweep.beta = 1e-3\nsweep.U = 2\n")
        assert main(["sweep", str(path)]) == 2
        assert "config error: basis.n_t" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["sweep.decay_below", "sweep.growth_above"])
    def test_removed_sweep_key_exits_two(self, tmp_path, capsys, key):
        """The classification thresholds are constants: a config that sets one is refused."""
        path = write_cfg(tmp_path, TOY + f"sweep.beta = 1e-3\nsweep.U = 2\n{key} = 2\n")
        assert main(["sweep", str(path)]) == 2
        assert f"config error: {key}: unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_beta_exits_two(self, tmp_path, capsys):
        """A negative grid rate is a config error naming sweep.beta, not a traceback."""
        path = write_cfg(tmp_path, TOY + "sweep.beta = -1e-3\nsweep.U = 2\n")
        assert main(["sweep", str(path)]) == 2
        assert "config error: sweep.beta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_all_failed_cells_exit_three(self, tmp_path, capsys):
        """A sweep whose every cell blows up names the first cell and its note, which carries
        the failure time; it reports no t = nan."""
        text = TOY.replace("integrator.t_end = 2", "integrator.t_end = 4") + "model.P = 10000\n"
        path = write_cfg(tmp_path, text + "sweep.beta = 1e-3,1e-2\nsweep.U = 1\n")
        assert main(["sweep", str(path)]) == 3
        err = capsys.readouterr().err
        first = "integration failed: every sweep cell failed; the first, beta=0.001 U=1: "
        assert re.search(re.escape(first) + r"state became non-finite at t=\d", err), err
        assert "nan" not in err

    def test_duplicate_grid_values_warn(self, tmp_path):
        """Duplicate grid entries carry the library warning through the CLI."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, TOY + "sweep.beta = 1e-3,1e-3\nsweep.U = 2\n", outdir=out)
        with pytest.warns(UserWarning, match="duplicate beta"):
            assert main(["sweep", str(path)]) == 0
        with open(out / "sweep.csv", newline="") as f:
            assert len(list(csv.reader(f))) == 2


class TestPresets:
    def test_texts_resolve(self):
        """Every preset parses, resolves, and keeps the 10+4 bridge basis."""
        for name in ("tnb", "free", "wind", "wind_stretch", "damped"):
            cfg = resolve_config(parse_config_text(preset_text(name)))
            assert cfg.scenario.name == name
            assert (cfg.scenario.basis.n_w, cfg.scenario.basis.n_t) == (10, 4)
            assert cfg.scenario.integrator.t_end == 120.0

    def test_conservative_preset_keeps_cables_only(self):
        """The base preset has stretching derived but no wind or damping."""
        cfg = resolve_config(parse_config_text(preset_text("tnb")))
        p = cfg.scenario.params
        assert p.beta == 0.0 and p.delta == 0.0 and p.Upsilon == 0.0
        assert p.S > 0.0
        assert cfg.scenario.geometry.b > 0.0 and cfg.scenario.geometry.c > 0.0

    def test_unknown_preset_rejected(self):
        """Unknown preset names raise a config error."""
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_text("narrows")

    def test_preset_subcommand_prints_text(self, capsys):
        """The preset subcommand emits exactly the canonical text."""
        assert main(["preset", "damped"]) == 0
        assert capsys.readouterr().out == preset_text("damped")


class TestExitCodes:
    def test_spec_example_typo_exits_two(self, tmp_path, capsys):
        """A misspelled model key exits 2 and names the key on stderr."""
        path = tmp_path / "bad.cfg"
        path.write_text("modle.M = 7198\n")
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "modle.M" in err

    @pytest.mark.parametrize(
        "line",
        ["initial.w.1 = nan", "initial.all = 1e400", "basis.L = inf", "integrator.t_end = inf"],
    )
    def test_non_finite_value_exits_two(self, tmp_path, capsys, line):
        """A non-finite number stops simulate with exit 2 before any run."""
        path = write_cfg(tmp_path, line + "\n")
        assert main(["simulate", str(path)]) == 2
        assert f"config error: {line.split()[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["meta.seed = 0", "model.f = 70.71", "cable.s0 = 1"])
    def test_keys_that_change_nothing_exit_two(self, tmp_path, capsys, line):
        """The run seed, cable sag and hanger datum have no key; a manifest with one exits 2."""
        path = write_cfg(tmp_path, line + "\n")
        assert main(["simulate", str(path)]) == 2
        assert f"{line.split()[0]}: unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["output.channels = th", "integrator.atol = 1e-12", "initial.w.all = 0.1"]
    )
    def test_keys_no_caller_sets_exit_two(self, tmp_path, capsys, line):
        """Output channels, DP45's atol and a channel-wide initial level have no key: a config
        with one exits 2 naming it and writes nothing."""
        key = line.split()[0]
        path = write_cfg(tmp_path, TOY + line + "\n")
        assert main(["simulate", str(path)]) == 2
        assert f"config error: {key}: unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_two_spellings_of_one_mode_exit_two(self, tmp_path, capsys):
        """initial.w.1 and initial.w.01 set the same mode: the config exits 2 naming both
        keys and writes nothing, rather than letting the later line win."""
        path = write_cfg(tmp_path, TOY + "initial.w.01 = 0.2\n")
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: initial.w.01: mode 1 is already set by initial.w.1" in err
        assert not (tmp_path / "out").exists()

    def test_cable_b_derive_without_rest_length_exits_two(self, tmp_path, capsys):
        """cable.b = derive reads the tabulated cable.L0: tnb without it exits 2 naming it."""
        text = "".join(
            line + "\n" for line in preset_text("tnb").splitlines()
            if not line.startswith(("cable.L0", "output.directory"))
        )
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert "config error: cable.b: derive requires cable.L0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "lines",
        [
            "integrator.dt = 1e-3\nintegrator.t_end = 1\nintegrator.sample_every = 5\n",
            "integrator.dt = 1e-300\n",
            "integrator.dt = derive\nmodel.M = 1e-300\n",
        ],
        ids=["cadence_past_t_end", "tiny_step", "tiny_derived_step"],
    )
    def test_unrunnable_sample_clock_exits_two(self, tmp_path, capsys, lines):
        """A cadence past t_end, or more steps than numpy can index, exits 2 naming
        integrator before any run, not a shrunken step or a traceback from np.empty."""
        assert main(["simulate", str(write_cfg(tmp_path, lines))]) == 2
        assert "config error: integrator: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, text, code, message",
        [
            (["simulate"], "model.g = 9.8\nmodel.H = 0\ncable.a = derive\n", 2,
             "config error: cable.a: derive requires model.H > 0"),
            (["simulate"], "model.H = -5\ncable.a = 0.2\ncable.c = derive\n", 2,
             "config error: cable.c: derive requires model.H > 0"),
            (["simulate"], "model.H = 0\ncable.a = 0.2\ncable.c = derive\n", 2,
             "config error: cable.c: derive requires model.H > 0"),
            (["simulate"], CABLE_B_DERIVED + "cable.L0 = 0\n", 2,
             "config error: cable.b: derive requires cable.L0 > 0"),
            (["simulate"], CABLE_B_DERIVED + "cable.L0 = -5\n", 2,
             "config error: cable.b: derive requires cable.L0 > 0"),
            # 1e13 steps of 28 entries: 1.99 PiB, beyond any address space, so never granted
            (["simulate"], "integrator.dt = 1e-12\n", 3,
             "out of memory: Unable to allocate 1.99 PiB"),
            (["simulate"], "modle.M = 7198\n", 2,
             "config error: modle.M: unknown configuration key"),
            (["simulate"], "model.E = 1e200\nmodel.I = 1e200\nmodel.D = derive\n", 2,
             "config error: model.D: derived value inf is not finite"),
            (["simulate"], "cable.a = 0.2\ncable.b = -1\n", 2,
             "config error: cable: cable stiffnesses must be nonnegative, got b=-1.0, c=0.0"),
            (["simulate"], "cable.a = -0.2\n", 2,
             "config error: cable: tension parameter must be positive, got a=-0.2"),
            (["simulate"], "cable.b = -1\n", 2,
             "config error: cable: cable stiffnesses must be nonnegative, got b=-1.0, c=0.0"),
            (["simulate"], "integrator.method = euler\n", 2,
             "config error: integrator: unknown method 'euler'; use rk4 or adaptive45"),
            (["linear"], TOY, 2, "pass --linearize"),
            (["linear", "--csv", "out/closed.csv"], "model.delta = 50\nmodel.zeta = 0.05\n", 3,
             "linear analysis failed: vertical branch overdamped"),
            (["sweep"], "sweep.beta = 1e-3\n", 2, "config error: sweep.U: missing required key"),
        ],
        ids=["H_zero", "c_H_negative", "c_H_zero", "L0_zero", "L0_negative", "out_of_memory", "unknown_key",
             "D_overflow", "b_negative", "a_negative", "b_negative_without_a", "unknown_method",
             "nonlinear_linear", "overdamped_csv", "sweep_without_speeds"],
    )
    def test_typed_failure_exits_without_traceback(
        self, tmp_path, capsys, monkeypatch, argv, text, code, message
    ):
        """Each failure exits with its code and one stderr line naming its cause, and writes
        nothing."""
        monkeypatch.chdir(tmp_path)  # the --csv path is relative
        assert main([*argv, str(write_cfg(tmp_path, text))]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        """An unreadable config path is a configuration error."""
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
