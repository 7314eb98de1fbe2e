"""Tests for config parsing, manifests, CSV output, and the CLI entry point."""

import csv
import math

import numpy as np
import pytest

import fishbone.cable
from fishbone.cli import (
    ConfigError,
    load_config,
    main,
    manifest_text,
    parse_config_text,
    preset_text,
    resolve_config,
    run_simulate,
    run_verify,
)
from fishbone.spectral import displayed_to_modal

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

    def test_span_conflict(self):
        """model.L and basis.L must agree when both are given."""
        with pytest.raises(ConfigError, match="conflicts"):
            resolve_config({"model.L": "4", "basis.L": "3"})
        cfg = resolve_config({"model.L": "3", "basis.L": "3"})
        assert cfg.scenario.params.L == 3.0

    def test_section_validation_propagates(self):
        """Bad basis, model, and integrator values surface as config errors."""
        with pytest.raises(ConfigError, match="basis"):
            resolve_config({"basis.n_w": "0"})
        with pytest.raises(ConfigError, match="model"):
            resolve_config({"model.delta": "-1"})
        with pytest.raises(ConfigError, match="integrator.method"):
            resolve_config({"integrator.method": "euler"})
        with pytest.raises(ConfigError, match="integrator"):
            resolve_config({"integrator.dt": "0.1", "integrator.sample_every": "0.01"})

    def test_defaults(self):
        """An empty config resolves to the nondimensional defaults."""
        cfg = resolve_config({})
        assert cfg.name == "run"
        assert cfg.scenario.params.L == math.pi
        assert (cfg.scenario.basis.n_w, cfg.scenario.basis.n_t) == (10, 4)
        assert cfg.scenario.integrator.dt == 1e-3
        assert cfg.scenario.integrator.t_end == 10.0
        assert cfg.channels == ("w", "wdot", "th", "thdot")
        assert np.all(cfg.scenario.initial.pack() == 0.0)

    def test_cadence_alias(self):
        """output.cadence is integrator.sample_every, and they must not clash."""
        cfg = resolve_config({"output.cadence": "0.5"})
        assert cfg.scenario.integrator.sample_every == 0.5
        with pytest.raises(ConfigError, match="conflicts"):
            resolve_config({"output.cadence": "0.5", "integrator.sample_every": "0.5"})

    def test_channel_selection(self):
        """Channels are validated and reported in canonical order."""
        cfg = resolve_config({"output.channels": "thdot, w"})
        assert cfg.channels == ("w", "thdot")
        with pytest.raises(ConfigError, match="unknown channel"):
            resolve_config({"output.channels": "w,tilt"})
        with pytest.raises(ConfigError, match="at least one"):
            resolve_config({"output.channels": ","})


class TestInitialData:
    def test_broadcast_precedence(self):
        """initial.all < initial.<ch>.all < initial.<ch>.<mode>, any file order."""
        flat = {
            "basis.n_w": "3",
            "basis.n_t": "2",
            "initial.th.2": "0.5",
            "initial.all": "0.1",
            "initial.th.all": "0.2",
        }
        cfg = resolve_config(flat)
        np.testing.assert_allclose(cfg.initial_displayed["w"], [0.1, 0.1, 0.1])
        np.testing.assert_allclose(cfg.initial_displayed["wdot"], [0.1, 0.1, 0.1])
        np.testing.assert_allclose(cfg.initial_displayed["th"], [0.2, 0.5])
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

    def test_cable_b_from_computed_rest_length(self):
        """Without cable.L0 the derive rule integrates the rest shape."""
        flat = {
            "model.M": "7000",
            "model.g": "9.8",
            "model.H": "4.5e7",
            "model.Ec": "1.8e11",
            "model.Ac": "0.12",
            "cable.a": "derive",
            "cable.b": "derive",
            "cable.c": "derive",
            "basis.L": "853.44",
        }
        cfg = resolve_config(flat)
        geo = cfg.scenario.geometry
        np.testing.assert_allclose(geo.b, 0.12 * 1.8e11 / geo.L0, rtol=1e-12)

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
        from fishbone.experiments import default_timestep

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
        """simulate writes trajectory, energy, and manifest with documented headers."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, TOY, outdir=out)
        bundle = run_simulate(path)
        assert bundle.trajectory.exists() and bundle.energy.exists() and bundle.manifest.exists()
        header, rows = self.read_csv(bundle.trajectory)
        assert header == (
            ["t"]
            + [f"w_{j}" for j in (1, 2, 3)]
            + [f"wdot_{j}" for j in (1, 2, 3)]
            + [f"th_{j}" for j in (1, 2)]
            + [f"thdot_{j}" for j in (1, 2)]
        )
        assert len(rows) == 21  # t_end 2 at cadence 0.1
        eheader, erows = self.read_csv(bundle.energy)
        assert eheader == ["t", "E", "Eplus", "Efull", "residual"]
        assert len(erows) == 21
        assert all(np.isfinite(float(v)) for v in erows[-1])

    def test_displayed_amplitudes_in_csv(self, tmp_path):
        """The t = 0 row reports the displayed initial amplitudes."""
        path = write_cfg(tmp_path, TOY)
        bundle = run_simulate(path)
        header, rows = self.read_csv(bundle.trajectory)
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        np.testing.assert_allclose(float(first["w_1"]), 0.1, rtol=1e-15)
        np.testing.assert_allclose(float(first["th_1"]), 0.05, rtol=1e-15)
        assert float(first["w_2"]) == 0.0

    def test_zero_initial_gives_zero_columns(self, tmp_path):
        """A zero initial state on the flat deck stays identically zero."""
        text = "integrator.dt = 0.05\nintegrator.t_end = 0.5\n"
        path = write_cfg(tmp_path, text)
        bundle = run_simulate(path)
        _, rows = self.read_csv(bundle.trajectory)
        for row in rows:
            assert all(cell == "0" for cell in row[1:])

    def test_channel_subset(self, tmp_path):
        """output.channels restricts the trajectory columns."""
        path = write_cfg(tmp_path, TOY + "output.channels = th\n")
        bundle = run_simulate(path)
        header, _ = self.read_csv(bundle.trajectory)
        assert header == ["t", "th_1", "th_2"]

    def test_values_round_trip_through_text(self, tmp_path):
        """CSV cells are full-precision decimal forms of the computed floats."""
        path = write_cfg(tmp_path, TOY)
        bundle = run_simulate(path)
        cfg = load_config(path)
        traj = cfg.scenario.run()
        scale = math.sqrt(2.0 / cfg.scenario.basis.L)
        header, rows = self.read_csv(bundle.trajectory)
        np.testing.assert_array_equal(
            np.array([[float(v) for v in row] for row in rows[:5]])[:, 1:4],
            scale * traj.w[:5],
        )

    def test_rerun_from_manifest_bit_identical(self, tmp_path):
        """Re-running from the manifest reproduces the trajectory CSV exactly."""
        out_a = tmp_path / "a"
        path = write_cfg(tmp_path, TOY, outdir=out_a)
        bundle = run_simulate(path)
        manifest = bundle.manifest.read_text()
        out_b = tmp_path / "b"
        rerun_cfg = tmp_path / "rerun.cfg"
        rerun_cfg.write_text(
            manifest.replace(f"output.directory = {out_a}", f"output.directory = {out_b}")
        )
        bundle_b = run_simulate(rerun_cfg)
        assert bundle_b.trajectory.read_bytes() == bundle.trajectory.read_bytes()
        assert bundle_b.energy.read_bytes() == bundle.energy.read_bytes()


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

    def test_nonlinear_config_needs_flag(self, tmp_path, capsys):
        """A cable/stretching config is refused without --linearize."""
        path = write_cfg(tmp_path, TOY)
        assert main(["linear", str(path)]) == 2
        assert "--linearize" in capsys.readouterr().err
        assert main(["linear", str(path), "--linearize"]) == 0

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

    def test_zero_samples_trivially_pass(self, capsys):
        """samples = 0 short-circuits to a passing empty report."""
        assert run_verify(seed=0, samples=0) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out and "verdict: pass" in out

    def test_mutated_force_density_fails(self, capsys, monkeypatch):
        """Flipping the restoring-force sign is caught with exit code 4."""
        true_h = fishbone.cable.h_of
        monkeypatch.setattr(
            fishbone.cable, "h_of", lambda u, geo, grid: -true_h(u, geo, grid)
        )
        assert run_verify(seed=0, samples=50) == 4
        out = capsys.readouterr().out
        assert "verdict: fail" in out

    def test_cli_wiring(self, capsys):
        """The verify subcommand forwards seed and sample count."""
        assert main(["verify", "--seed", "3", "--samples", "25"]) == 0
        out = capsys.readouterr().out
        assert "seed: 3" in out and "samples: 25" in out


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

    def test_all_failed_cells_exit_three(self, tmp_path, capsys):
        """A sweep whose every cell blows up reports the failure time."""
        text = TOY.replace("integrator.t_end = 2", "integrator.t_end = 4") + "model.P = 10000\n"
        path = write_cfg(tmp_path, text + "sweep.beta = 1e-3\nsweep.U = 1\n")
        assert main(["sweep", str(path)]) == 3
        assert "integration failed at t =" in capsys.readouterr().err

    def test_thread_cap_parsed(self, tmp_path, monkeypatch, capsys):
        """FISHBONE_THREADS caps workers; junk values are config errors."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, TOY + "sweep.beta = 1e-3\nsweep.U = 2\n", outdir=out)
        monkeypatch.setenv("FISHBONE_THREADS", "1")
        assert main(["sweep", str(path)]) == 0
        monkeypatch.setenv("FISHBONE_THREADS", "abc")
        assert main(["sweep", str(path)]) == 2
        assert "FISHBONE_THREADS" in capsys.readouterr().err

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
            assert cfg.name == name
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

    def test_missing_file_exits_two(self, tmp_path, capsys):
        """An unreadable config path is a configuration error."""
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
