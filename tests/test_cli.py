import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from chargedphi2 import cli, errors, fock, hamiltonian, linalg
from chargedphi2.config import load_config, parse_config
from chargedphi2.errors import ConfigError
from chargedphi2.fock import HARD_DIMENSION_CAP

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDENS = REPO / "goldens" / "desk_suite.json"
# The hash names every report file, so it must not move when the schema code
# does: prefixes of `ExperimentConfig.hash()` of every shipped and benchmark config.
CONFIG_HASHES = {
    "configs/desk_bundle.json": "4576b10b",
    "configs/free.json": "cc05f01b",
    "configs/ladder.json": "548e24bf",
    "configs/lambda_quant.json": "b419a69a",
    "configs/probe.json": "26b1ac61",
    "configs/quantize.json": "fff79c3a",
    "perfbench/configs/m17_spectrum.json": "6cc9d0b9",
    "perfbench/configs/probe_m9.json": "34789b82",
}


def minimal_config(**overrides):
    raw = {
        "lattice": {"v": "1", "kappa": 2.0, "mass": 1.0},
        "potential": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
    }
    raw.update(overrides)
    return raw


class TestConfigSchema:
    def test_defaults_filled(self):
        cfg = parse_config(minimal_config())
        assert cfg.n_max == 3
        assert cfg.coupling.lam == 0.0
        assert cfg.cutoff.kind == "gaussian"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(lattice_size=4))

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(lattice={"v": "1", "kapa": 2.0}))

    @pytest.mark.parametrize(
        "patch",
        [
            {"lattice": {"v": "-1"}},
            {"lattice": {"kappa": -2.0}},
            {"lattice": {"mass": 0.0}},
            {"n_max": -1},
            {"grid": {"points": 33}},
            {"solver": {"overlap_threshold": 2.0}},
            {"polynomial": {"coeffs": [[1, 2]]}},
            {"probe": {"times": []}},
            {"solver": {"basis_cap": 0}},
            {"solver": {"basis_cap": HARD_DIMENSION_CAP + 1}},
            {"seed": 0},
        ],
    )
    def test_invalid_values_rejected(self, patch):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(**patch))

    def test_integral_floats_accepted_for_integer_keys(self):
        cfg = parse_config(minimal_config(n_max=2.0, solver={"basis_cap": 1000.0}))
        assert (cfg.n_max, cfg.solver.basis_cap) == (2, 1000)
        assert isinstance(cfg.n_max, int) and isinstance(cfg.solver.basis_cap, int)

    def test_hash_deterministic_and_sensitive(self):
        a = parse_config(minimal_config())
        b = parse_config(minimal_config())
        c = parse_config(minimal_config(coupling={"lambda": 0.2}))
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    @pytest.mark.parametrize("path, prefix", sorted(CONFIG_HASHES.items()))
    def test_config_hashes_pinned(self, path, prefix):
        assert load_config(REPO / path).hash()[:8] == prefix

    def test_desk_bundle_config_hashes_like_its_file(self):
        assert cli.desk_bundle_config().hash() == load_config(CONFIGS / "desk_bundle.json").hash()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_ladder_factory_matches_levels(self):
        cfg = parse_config(minimal_config(lattice={"v": "1", "kappa": 2.0, "refinement_levels": 3}))
        ladder = list(cfg.lattice_ladder())
        assert len(ladder) == 3
        assert [str(l.v) for l in ladder] == ["1", "2", "4"]


class TestCliExitCodes:
    def test_validate_shipped_configs(self, capsys):
        for name in ("desk_bundle", "ladder", "lambda_quant", "quantize", "probe", "free"):
            assert cli.main(["validate", str(CONFIGS / f"{name}.json")]) == 0

    def test_validation_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_config(unknown_section={})))
        assert cli.main(["validate", str(bad)]) == 2

    def test_basis_cap_above_hard_cap_exit_2(self, tmp_path, capsys):
        # the hard cap is a ceiling a config cannot raise
        raw = json.loads((CONFIGS / "desk_bundle.json").read_text())
        raw["solver"] = {**raw.get("solver", {}), "basis_cap": HARD_DIMENSION_CAP + 1}
        cfg = tmp_path / "raised.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["spectrum", str(cfg)]) == cli.EXIT_CONFIG == 2
        assert f"solver.basis_cap must be in [1, {HARD_DIMENSION_CAP}]" in capsys.readouterr().err
        assert parse_config(minimal_config(solver={"basis_cap": HARD_DIMENSION_CAP})).solver.basis_cap == HARD_DIMENSION_CAP

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"solver": {"basis_cap": "abc"}}, "solver.basis_cap must be a finite number"),
            ({"n_max": "x"}, "config.n_max must be a finite number"),
            ({"solver": {"basis_cap": 1.9}}, "solver.basis_cap must be an integer"),
            ({"n_max": 2.5}, "config.n_max must be an integer"),
            ({"n_max": True}, "config.n_max must be a finite number"),
            ({"lattice": {"kappa": True}}, "lattice.kappa must be a finite number"),
            ({"lattice": {"kappa": float("nan")}}, "lattice.kappa must be a finite number"),
            ({"lattice": {"kappa": 10**400}}, "lattice.kappa must be a finite number"),
            ({"n_max": 10**400}, "config.n_max must be a finite number"),
            ({"lattice": {"v": "abc"}}, "lattice.v must be a positive rational"),
            ({"coupling": {"lambda": "0.1"}}, "coupling.lambda must be a finite number"),
            ({"grid": {"points": 32.5}}, "grid.points must be an integer"),
            ({"polynomial": {"coeffs": [[4, 0, "1"]]}}, "polynomial.coeffs must be a finite number"),
            ({"polynomial": {"coeffs": [[4.5, 0, 1.0]]}}, "polynomial.coeffs must be an integer"),
            ({"polynomial": {"coeffs": 4}}, "polynomial.coeffs must be a list"),
            ({"probe": {"times": [1.0, "2"]}}, "probe.times must be a finite number"),
            ({"override_stability": 1}, "config.override_stability must be true or false"),
            ({"potential": {"kind": "square"}}, "potential.kind must be one of ['gaussian', 'lorentzian', 'zero']"),
            ({"cutoff": {"kind": "box"}}, "cutoff.kind must be one of ['gaussian', 'lorentzian', 'zero']"),
        ],
    )
    def test_mistyped_value_exit_2(self, tmp_path, capsys, patch, message):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(minimal_config(**patch)))
        assert cli.main(["validate", str(cfg)]) == cli.EXIT_CONFIG == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_lambda_quant_zero_potential_reports_inf(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(minimal_config(potential={"kind": "zero"})))
        assert cli.main(["lambda-quant", str(cfg)]) == 0
        report = json.loads(next(tmp_path.glob("lambda_quant_*.json")).read_text())
        assert report["report"]["lambda_quant"] == "inf"

    def test_stability_error_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "hot.json"
        raw = minimal_config(coupling={"lambda": 50.0}, n_max=1)
        cfg.write_text(json.dumps(raw))
        assert cli.main(["spectrum", str(cfg)]) == 3

    def test_stability_gate_names_the_kernels_stage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "hot.json"
        cfg.write_text(json.dumps(minimal_config(coupling={"lambda": 50.0}, n_max=1)))
        assert cli.main(["spectrum", str(cfg)]) == cli.EXIT_STABILITY == 3
        header, basis, failed, err = capsys.readouterr().err.splitlines()
        assert header.startswith("numpy ") and basis.startswith("stage basis ")
        assert failed == "stage kernels failed: StabilityError"
        assert err.startswith("stability error: |lambda|=50 is not below the stability threshold")

    def test_odd_polynomial_names_the_kernels_stage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "odd.json"
        cfg.write_text(json.dumps(minimal_config(polynomial={"coeffs": [[3, 0, 1.0]]}, n_max=1)))
        assert cli.main(["spectrum", str(cfg)]) == cli.EXIT_CONTRACT == 7
        header, basis, failed, err = capsys.readouterr().err.splitlines()
        assert header.startswith("numpy ") and basis.startswith("stage basis ")
        assert failed == "stage kernels failed: ContractError"
        assert err == "contract error: polynomial degree 3 is odd, not bounded below"

    @pytest.mark.parametrize("kind", ["missing", "directory", "utf-16"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "utf-16":
            cfg.write_bytes(json.dumps(minimal_config()).encode("utf-16"))  # starts with the bytes ff fe
        assert cli.main(["spectrum", str(cfg)]) == cli.EXIT_CONFIG == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"config error: config {cfg} cannot be read as UTF-8 text: ")

    def test_unstable_quantization_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "unstable.json"
        raw = minimal_config(potential={"kind": "gaussian", "amplitude": 50.0}, grid={"points": 32, "length": 8.0})
        cfg.write_text(json.dumps(raw))
        assert cli.main(["quantize", str(cfg)]) == 3

    def test_override_allows_exploration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "hot.json"
        raw = minimal_config(
            coupling={"lambda": 2.0},
            n_max=1,
            override_stability=True,
            solver={"num_eigenvalues": 2},
        )
        cfg.write_text(json.dumps(raw))
        assert cli.main(["spectrum", str(cfg)]) == 0


    def test_resource_limit_exit_6(self, tmp_path, monkeypatch, capsys):
        # the desk bundle has dimension 1,330; the cap refuses it in enumeration
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "desk_bundle.json").read_text())
        raw["solver"] = {**raw.get("solver", {}), "basis_cap": 1000}
        cfg = tmp_path / "capped.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["spectrum", str(cfg)]) == cli.EXIT_RESOURCE == 6
        header, failed, err = capsys.readouterr().err.splitlines()
        assert header.startswith("numpy ") and failed == "stage basis failed: ResourceLimitError"
        assert err == "resource error: Fock basis dimension 1330 exceeds the hard cap 1000"
        assert not list(tmp_path.glob("spectrum_*"))

    def test_particle_cap_of_a_billion_exits_6_at_once(self, tmp_path, monkeypatch, capsys):
        # the dimension is one binomial, C(18 + 10^9, 10^9), not a sum of 10^9 + 1
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "desk_bundle.json").read_text())
        raw["n_max"] = 10**9
        cfg = tmp_path / "n1e9.json"
        cfg.write_text(json.dumps(raw))
        start = time.perf_counter()
        assert cli.main(["spectrum", str(cfg)]) == cli.EXIT_RESOURCE == 6
        assert time.perf_counter() - start < 2.0
        assert "exceeds the hard cap 200000" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["n1e9.json"]

    def test_dense_ceiling_exit_6(self, tmp_path, monkeypatch, capsys):
        # the desk bundle at v = 5 (dim 14,190) is within the basis cap, but its
        # larger momentum-parity block (7,130; the odd one is 7,060) is over the
        # dense ceiling that the probe's full spectrum needs; it is refused
        # before H is assembled
        def refuse(*args, **kwargs):
            raise AssertionError("assembled a bundle over the dense ceiling")

        monkeypatch.setattr(hamiltonian, "assemble", refuse)
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "desk_bundle.json").read_text())
        raw["lattice"]["v"] = "5"
        cfg = tmp_path / "v5.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["probe-scattering", str(cfg)]) == cli.EXIT_RESOURCE == 6
        assert "momentum-parity block dimension 7130 exceeds the dense ceiling 4000" in capsys.readouterr().err
        assert not list(tmp_path.glob("probe_*"))

    @pytest.mark.parametrize(
        "subcommand, v, kappa, modes",
        [
            pytest.param("lambda-quant", "125", 16.0, 4001, id="lambda-quant"),
            pytest.param("spectrum", "125", 16.0, 4001, id="spectrum"),
            pytest.param("lambda-quant", "1", 2e7, 40_000_001, id="lambda-quant-kappa-2e7"),
            pytest.param("spectrum", "1", 2e7, 40_000_001, id="spectrum-kappa-2e7"),
        ],
    )
    def test_one_particle_matrix_over_the_dense_ceiling_exits_6(
        self, tmp_path, monkeypatch, capsys, subcommand, v, kappa, modes
    ):
        # 4,001 modes (v = 125, kappa = 16): one 4,001 x 4,001 float64 array is
        # 122 MiB, and the lattice is refused from its size before any exists.
        # lambda-quant reaches the check in `potential_matrix`; spectrum at
        # n_max 0 before its basis is enumerated.  At 40,000,001 modes even the
        # mode array (305 MiB) is never made.
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "desk_bundle.json").read_text())
        raw["lattice"].update(v=v, kappa=kappa)
        raw["n_max"] = 0
        cfg = tmp_path / "m4001.json"
        cfg.write_text(json.dumps(raw))
        tracemalloc.start()
        try:
            assert cli.main([subcommand, str(cfg)]) == cli.EXIT_RESOURCE == 6
            assert tracemalloc.get_traced_memory()[1] < 8 * 2**20
        finally:
            tracemalloc.stop()
        assert f"momentum lattice mode count {modes} exceeds the dense ceiling 4000" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["m4001.json"]

    def test_quantize_grid_over_the_dense_ceiling_exits_6(self, tmp_path, monkeypatch, capsys):
        # 1,002 points make 4,008 x 4,008 phase-space matrices; `phase_space_grid`
        # refuses the grid before any of them exists
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "quantize.json").read_text())
        raw["grid"]["points"] = 1002
        cfg = tmp_path / "g1002.json"
        cfg.write_text(json.dumps(raw))
        start = time.perf_counter()
        assert cli.main(["quantize", str(cfg)]) == cli.EXIT_RESOURCE == 6
        assert time.perf_counter() - start < 2.0
        assert "phase-space matrix dimension 4008 exceeds the dense ceiling 4000" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["g1002.json"]

    @pytest.mark.parametrize("subcommand", ["hvz", "convergence"])
    def test_ladder_over_the_cap_exits_6_before_any_level(self, tmp_path, monkeypatch, capsys, subcommand):
        # the ladder's levels have dimensions 66, 276 and 1,128; a cap of 1,000
        # refuses the top one before either level below it is enumerated
        calls = []
        enumerate_basis, assemble = fock.enumerate_basis, hamiltonian.assemble
        monkeypatch.setattr(fock, "enumerate_basis", lambda *a, **kw: calls.append("enumerate") or enumerate_basis(*a, **kw))
        monkeypatch.setattr(hamiltonian, "assemble", lambda *a, **kw: calls.append("assemble") or assemble(*a, **kw))
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "ladder.json").read_text())
        raw["solver"]["basis_cap"] = 1000
        cfg = tmp_path / "capped.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main([subcommand, str(cfg)]) == cli.EXIT_RESOURCE == 6
        assert "resource error: Fock basis dimension 1128 exceeds the hard cap 1000" in capsys.readouterr().err
        assert calls == []
        assert not list(tmp_path.glob(f"{subcommand}_*"))

    def test_deep_ladder_stops_at_the_first_level_over_the_cap(self, tmp_path, monkeypatch, capsys):
        # a million levels: the check stops at the first level over the cap
        # (dimension 294,528 at v = 64, the seventh), and no lattice past it is made
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "ladder.json").read_text())
        raw["lattice"]["refinement_levels"] = 10**6
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(raw))
        start = time.perf_counter()
        assert cli.main(["hvz", str(cfg)]) == cli.EXIT_RESOURCE == 6
        assert time.perf_counter() - start < 2.0
        assert "Fock basis dimension 294528 exceeds the hard cap 200000" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([[3, 0, 1.0]], "degree 3 is odd"),
            ([[4, 0, -1.0]], "unbounded below"),
            # phi_1^4 vanishes along phi_2, where -phi_2^2 is unbounded below
            ([[4, 0, 1.0], [0, 2, -1.0]], "unbounded below"),
        ],
    )
    def test_contract_error_exit_7(self, tmp_path, monkeypatch, capsys, coeffs, message):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "poly.json"
        cfg.write_text(json.dumps(minimal_config(polynomial={"coeffs": coeffs}, n_max=1)))
        assert cli.main(["spectrum", str(cfg)]) == cli.EXIT_CONTRACT == 7
        *stages, err = capsys.readouterr().err.splitlines()
        assert err.startswith("contract error: ") and message in err
        assert all(line.startswith(("numpy ", "stage ")) for line in stages)
        assert not list(tmp_path.glob("spectrum_*"))

    def test_out_of_memory_exit_6(self, tmp_path, monkeypatch, capsys):
        def exhaust(cfg, outdir):
            raise MemoryError

        monkeypatch.setitem(cli.RUNNERS, "convergence", exhaust)
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        assert cli.main(["convergence", str(CONFIGS / "ladder.json")]) == cli.EXIT_RESOURCE == 6
        out, err = capsys.readouterr()
        assert (out, err) == ("", "resource error: out of memory during convergence\n")

    def test_convergence_free_config_exact_zero_gaps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        assert cli.main(["convergence", str(CONFIGS / "free.json")]) == 0
        report = json.loads(next(tmp_path.glob("convergence_*.json")).read_text())["report"]
        assert len(report["resolvent_gaps"]) == 2
        assert all(gap == 0.0 for gap in report["resolvent_gaps"])


class TestLiveness:
    """The ladder is walked with at most two levels alive."""

    def _peaks(self, tmp_path, monkeypatch, subcommand):
        built, live, peak = Counter(), Counter(), Counter()

        def track(kind, obj):
            built[kind] += 1
            live[kind] += 1
            peak[kind] = max(peak[kind], live[kind])
            weakref.finalize(obj, live.subtract, [kind])
            return obj

        bundle = cli._bundle
        monkeypatch.setattr(cli, "_bundle", lambda cfg, basis: track("bundle", bundle(cfg, basis)))
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        assert cli.main([subcommand, str(CONFIGS / "ladder.json")]) == 0
        return built, peak

    def test_convergence_holds_two_levels(self, tmp_path, monkeypatch):
        built, peak = self._peaks(tmp_path, monkeypatch, "convergence")
        assert built == Counter(bundle=3)
        assert peak["bundle"] <= 2

    def test_hvz_holds_two_levels(self, tmp_path, monkeypatch):
        built, peak = self._peaks(tmp_path, monkeypatch, "hvz")
        assert built == Counter(bundle=3)
        assert peak["bundle"] <= 2


class TestArtifacts:
    def test_convergence_solves_without_a_factor_or_a_matrix(self, tmp_path, monkeypatch):
        # the resolvents apply bundle.h; the one `matrix` read is the dense ground state
        # of the coarsest level (dim 66, under the rule), the other levels take Lanczos
        import scipy.sparse.linalg

        def splu(*args, **kwargs):
            raise AssertionError("splu called")

        reads, matrix = [], linalg.HermitianTriangle.matrix
        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        read = property(lambda h: reads.append(h.shape) or matrix.fget(h))
        monkeypatch.setattr(linalg.HermitianTriangle, "matrix", read)
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        assert cli.main(["convergence", str(CONFIGS / "ladder.json")]) == 0
        assert linalg.use_dense(66) and not linalg.use_dense(276)
        assert reads == [(66, 66)]

    def test_gap_norm_runs_lanczos_on_the_hermitian_difference(self, tmp_path, monkeypatch, capsys):
        # each application of D solves once per level; D^H D took 66 + 66 (dense at dim 66)
        # and 43 + 43 solves on ladder.json, D itself 32 + 32 per pair
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        assert cli.main(["convergence", str(CONFIGS / "ladder.json")]) == 0
        gaps = [line for line in capsys.readouterr().err.splitlines() if line.startswith("stage gap_norm ")]
        solves = [int(line.split(", solves ")[1].split(",")[0]) for line in gaps]
        assert len(solves) == 2 and all(count < 2 * 43 for count in solves)

    @pytest.mark.parametrize(
        "subcommand, config, names",
        [
            ("lambda-quant", "lambda_quant.json", ["coupling", "omega", "persist"]),
            ("quantize", "quantize.json", ["free_check", "generator", "polar", "residuals", "persist"]),
        ],
    )
    def test_one_particle_subcommands_log_their_stages(self, tmp_path, monkeypatch, capsys, subcommand, config, names):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        assert cli.main([subcommand, str(CONFIGS / config)]) == 0
        header, *lines = capsys.readouterr().err.splitlines()
        assert header.startswith("numpy ") and [line.split(" ")[1] for line in lines] == names

    def test_convergence_missed_solve_contract_exit_4(self, tmp_path, monkeypatch, capsys):
        cg = linalg.spla.cg
        monkeypatch.setattr(linalg.spla, "cg", lambda a, b, **kwargs: (cg(a, b, **kwargs)[0], 1))
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        assert cli.main(["convergence", str(CONFIGS / "ladder.json")]) == cli.EXIT_SOLVER == 4
        *_, failed, err = capsys.readouterr().err.splitlines()
        assert failed == "stage number_norm failed: SolverError"
        assert err.startswith("solver error: CG misses the solve contract")

    def test_cli_imports_skip_scipy_optimize(self):
        code = "import sys, chargedphi2.cli, chargedphi2.hamiltonian, chargedphi2.spectral; print(sorted(sys.modules))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        modules = eval(out.stdout)
        assert "chargedphi2.spectral" in modules and "scipy.optimize" not in modules

    def test_building_the_desk_bundle_skips_scipy_optimize(self):
        # the certificate of interaction_spec runs in every CLI process
        code = (
            "import sys\n"
            "from chargedphi2.fock import enumerate_basis\n"
            "from chargedphi2.hamiltonian import assemble, interaction_spec\n"
            "from chargedphi2.lattice import build_lattice\n"
            "from chargedphi2.potentials import gaussian_potential\n"
            "lat = build_lattice(2, 2.0, 1.0)\n"
            "spec = interaction_spec([(4, 0, 1.0), (0, 4, 1.0)], gaussian_potential(0.25, 1.0))\n"
            "bundle = assemble(spec, gaussian_potential(1.0, 1.0), 0.1, enumerate_basis(lat, 3))\n"
            "print(bundle.basis.dim, spec.certificate, 'scipy.optimize' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        dim, certificate, loaded = out.stdout.split()
        assert (dim, loaded) == ("1330", "False")
        assert float(certificate) == pytest.approx(0.5, abs=1e-12)

    def test_spectrum_writes_json_and_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(minimal_config(n_max=2, solver={"num_eigenvalues": 3})))
        assert cli.main(["spectrum", str(cfg)]) == 0
        json_files = list(tmp_path.glob("spectrum_*.json"))
        csv_files = list(tmp_path.glob("spectrum_*.csv"))
        assert len(json_files) == 1 and len(csv_files) == 1
        record = json.loads(json_files[0].read_text())
        assert {"config_hash", "version", "report", "quantities"} <= set(record)
        # csv.writer bytes: a header, then one row per eigenvalue, each ended by \r\n
        eigenvalues = record["report"]["eigenvalues"]
        assert len(eigenvalues) == 4
        rows = "".join(f"{i},{e!r}\r\n" for i, e in enumerate(eigenvalues))
        assert csv_files[0].read_bytes() == f"index,eigenvalue\r\n{rows}".encode()

    def test_spectrum_never_builds_the_full_matrix(self, tmp_path, monkeypatch):
        # the bundle, the Lanczos solve, the residual check and the metadata all apply T and d
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        built = property(lambda self: pytest.fail("built the full matrix of H"))
        monkeypatch.setattr(linalg.HermitianTriangle, "matrix", built)
        assert cli.main(["spectrum", str(CONFIGS / "desk_bundle.json")]) == 0

    @pytest.mark.parametrize(
        "subcommand, stem, headers",
        [
            ("validate", None, {}),
            ("lambda-quant", "lambda_quant", {}),
            ("quantize", "quantize", {}),
            ("spectrum", "spectrum", {"spectrum": "index,eigenvalue"}),
            ("hvz", "hvz", {"hvz": "v,kappa,dim,e0,onset,onset_mismatch"}),
            (
                "convergence",
                "convergence",
                {
                    "convergence_levels": "v,kappa,dim,e0,number_resolvent_norm",
                    "convergence_gaps": "pair,resolvent_gap",
                },
            ),
            ("probe-scattering", "probe", {"probe": "t,re,im,trusted"}),
        ],
    )
    def test_every_subcommand_writes_its_files(self, tmp_path, monkeypatch, subcommand, stem, headers):
        # stem names the JSON record (None: nothing is written), headers maps
        # the name of each CSV file to its header line
        out = tmp_path / "out"
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(out))
        cfg = tmp_path / "cfg.json"
        raw = minimal_config(
            lattice={"v": "1", "kappa": 2.0, "mass": 1.0, "refinement_levels": 2},
            n_max=2,
            grid={"points": 32, "length": 8.0},
        )
        cfg.write_text(json.dumps(raw))
        assert cli.main([subcommand, str(cfg)]) == 0
        tag = load_config(cfg).hash()[:8]
        expected = {f"{name}_{tag}.csv" for name in headers} | ({f"{stem}_{tag}.json"} if stem else set())
        assert {p.name for p in out.glob("*")} == expected
        for name, header in headers.items():
            lines = (out / f"{name}_{tag}.csv").read_text().splitlines()
            assert lines[0] == header and len(lines) > 1
        if stem:
            record = json.loads((out / f"{stem}_{tag}.json").read_text())
            assert set(record) == {"subcommand", "config_hash", "version", "created_utc", "report", "quantities"}
            assert (record["subcommand"], record["config_hash"][:8]) == (subcommand, tag)

    def test_probe_without_particles_writes_inf_recurrence(self, tmp_path, monkeypatch, capsys):
        # at n_max 0 H is the one vacuum level: no spacing, so the recurrence time is infinite
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        raw = json.loads((CONFIGS / "probe.json").read_text())
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({**raw, "n_max": 0}))
        assert cli.main(["probe-scattering", str(cfg)]) == 0
        record = json.loads(next(tmp_path.glob("probe_*.json")).read_text())
        assert record["report"]["recurrence_time"] == "inf"
        assert record["report"]["trusted"] == [True] * 4
        assert json.loads(capsys.readouterr().out)["recurrence_time"] == "inf"

    def test_reports_are_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(n_max=2)))
        cfg = load_config(cfg_path)
        rec1 = cli.run_spectrum(cfg, tmp_path)
        rec2 = cli.run_spectrum(cfg, tmp_path)
        assert json.dumps(rec1["report"], sort_keys=True) == json.dumps(rec2["report"], sort_keys=True)


class TestGoldenCheck:
    def test_shipped_suite_passes(self, capsys):
        assert cli.main(["golden-check", str(GOLDENS)]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 6

    def test_perturbed_value_fails_with_name(self, tmp_path, capsys):
        suite = json.loads(GOLDENS.read_text())
        fast = [e for e in suite["entries"] if e["name"] == "pair_kernel_frobenius_gaussian_v4_k8"]
        fast[0]["value"] += 0.1
        bad = tmp_path / "suite.json"
        bad.write_text(json.dumps({"entries": fast}))
        assert cli.main(["golden-check", str(bad)]) == 1
        assert "pair_kernel_frobenius_gaussian_v4_k8" in capsys.readouterr().out

    def test_empty_suite_exit_5(self, tmp_path):
        empty = tmp_path / "suite.json"
        empty.write_text(json.dumps({"entries": []}))
        assert cli.main(["golden-check", str(empty)]) == 5

    def test_missing_suite_exit_5(self, tmp_path):
        assert cli.main(["golden-check", str(tmp_path / "absent.json")]) == 5

    @pytest.mark.parametrize(
        "text, names",
        [
            ('{"entries": [{"name": "desk_bundle_e0", "value": 1.0}]}', ["'desk_bundle_e0'", "'tol'"]),
            ('{"entries": [{"name": "desk_bundle_e0", "value": "abc", "tol": 1e-9}]}', ["'desk_bundle_e0'", "'value'"]),
            ('[{"name": "desk_bundle_e0", "value": 1.0, "tol": 1e-9}]', ["'entries'"]),
            ('{"entries": [', ["cannot be read as JSON"]),
        ],
        ids=["no-tol", "non-numeric-value", "top-level-list", "invalid-json"],
    )
    def test_malformed_suite_exit_5(self, tmp_path, capsys, text, names):
        bad = tmp_path / "suite.json"
        bad.write_text(text)
        assert cli.main(["golden-check", str(bad)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("golden error: ") and all(name in err for name in names), err

    def test_unknown_entry_counts_as_failure(self, tmp_path, capsys):
        bad = tmp_path / "suite.json"
        bad.write_text(json.dumps({"entries": [{"name": "no_such_value", "value": 1.0, "tol": 1e-6}]}))
        assert cli.main(["golden-check", str(bad)]) == 1
        assert "UNKNOWN" in capsys.readouterr().out


def test_library_stages_write_nothing_and_keep_a_callers_tracemalloc_peak(capsys):
    # outside `cli.main` the stage log is off: no line, and no reset of the caller's peak
    tracemalloc.start()
    try:
        block = bytearray(8 << 20)
        del block
        with errors.stage("basis") as counts:
            counts["dim"] = 1
        assert tracemalloc.get_traced_memory()[1] >= 8 << 20
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ""
