"""Tests for the config-driven command line front end."""

import json
from dataclasses import replace

import numpy as np
import pytest

from vqenoise.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_STALLED,
    SCHEMA,
    config_hash,
    main,
    parse_config_file,
    resolve_config,
    resolved_text,
)
from vqenoise.ansatz import hartree_fock_index
from vqenoise.exceptions import ConfigError, NumericIntegrityError, \
    StalledError
from vqenoise.operators import expectation
from vqenoise.simulator import QuantumState


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    """Parse our CSV convention: hash comment, header, typed rows."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    digest = lines[0].split("=", 1)[1]
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        row = {}
        for name, cell in zip(header, cells):
            try:
                row[name] = int(cell)
            except ValueError:
                try:
                    row[name] = float(cell)
                except ValueError:
                    row[name] = cell
        rows.append(row)
    return digest, header, rows


DEFAULT_CONFIG_HASH = \
    "0ed8d32d3415f6991da53cc2ca869ff7483789a81b045dcf8f41d2c22fdb1c95"


class TestConfigParsing:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "molecule = h4_1.0\n"
            "\n"
            "pool = qeb  # trailing comment\n"
        )
        raw = parse_config_file(path)
        assert raw == {"molecule": "h4_1.0", "pool": "qeb"}

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("pool qeb\n")
        with pytest.raises(ConfigError, match="1"):
            parse_config_file(path)

    def test_defaults_are_complete(self):
        config = resolve_config({})
        assert set(config) == set(SCHEMA)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="typo_key"):
            resolve_config({"typo_key": "1"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="subpool_size"):
            resolve_config({"subpool_size": "many"})

    @pytest.mark.parametrize("key,value", [
        ("molecule", "h3_0.1"),
        ("pool", "spin"),
        ("rule", "random"),
        ("optimizer", "adam"),
        ("ansatz", "hea"),
        ("noise_scheme", "per_shot"),
        ("p_grid", "1e-3,1e-4"),
        ("p_grid", "0.5,1.5"),
        ("p_grid", ""),
        ("eps_opt", "0"),
        ("zne_multiplier", "1.0"),
        ("growth_p", "2.0"),
        ("workers", "-1"),
    ])
    def test_invalid_settings_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key.split("_")[0]):
            resolve_config({key: value})

    def test_uccsd_requires_excitation_pool(self):
        with pytest.raises(ConfigError, match="pool"):
            resolve_config({"ansatz": "uccsd", "pool": "qubit_pauli"})

    def test_resolved_text_sorted_and_stable(self):
        config = resolve_config({"pool": "qeb"})
        text = resolved_text(config)
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == sorted(keys)
        assert text == resolved_text(resolve_config({"pool": "qeb"}))

    def test_default_config_hash_pinned(self):
        # every output file's "# config_hash=" line depends on it
        assert config_hash(resolve_config({})) == DEFAULT_CONFIG_HASH

    @pytest.mark.parametrize("key,value", [
        ("growth_p", "0.5"),
        ("p_grid", "0,0.5"),
    ])
    def test_multiplied_probability_above_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            resolve_config({key: value, "noise_multiplier": "3"})
        resolve_config({key: value, "noise_multiplier": "2"})

    def test_hash_ignores_execution_placement(self):
        base = resolve_config({})
        moved = resolve_config({"workers": "8", "out": "elsewhere"})
        assert config_hash(base) == config_hash(moved)
        assert config_hash(base) != config_hash(resolve_config({"pool": "qeb"}))


class TestExitCodes:
    def test_unknown_key_exits_config(self, tmp_path, capsys):
        code = run_cli("fci", "--set", "bogus=1", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_malformed_set_exits_config(self, tmp_path, capsys):
        code = run_cli("fci", "--set", "pool", "--out", str(tmp_path))
        assert code == EXIT_CONFIG

    def test_stalled_growth_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "vqenoise.cli.adapt_run",
            lambda *a, **k: (_ for _ in ()).throw(StalledError("no progress")),
        )
        code = run_cli("adapt", "--out", str(tmp_path))
        assert code == EXIT_STALLED

    def test_numeric_failure_exits_five(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "vqenoise.cli.noise_susceptibility",
            lambda *a, **k: (_ for _ in ()).throw(
                NumericIntegrityError("drift")
            ),
        )
        code = run_cli(
            "susceptibility", "--set", "pool=qeb", "--out", str(tmp_path)
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("command,setting,key", [
        ("adapt", "growth_p=0.5", "growth_p"),
        ("sweep", "p_grid=0,0.5", "p_grid"),
        ("zne", "p_grid=0,0.2", "zne_multiplier"),
    ])
    def test_multiplied_probability_checked_before_work(
        self, tmp_path, capsys, monkeypatch, command, setting, key
    ):
        import vqenoise.cli as cli_module

        def no_work(*args, **kwargs):
            raise AssertionError("ran before the probability check")

        monkeypatch.setattr(cli_module, "load_problem", no_work)
        monkeypatch.setattr(cli_module, "grow_circuits", no_work)
        code = run_cli(command, "--set", setting,
                       "--set", "noise_multiplier=3", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_register_too_large_exits_resource(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--set", "pool=qeb", "--set", "dense_limit=2",
            "--set", "p_grid=0.001", "--workers", "1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_RESOURCE

    def test_memory_estimate_exits_resource(
        self, tmp_path, capsys, physical_memory
    ):
        physical_memory(4096)
        code = run_cli(
            "sweep", "--set", "pool=qeb", "--set", "p_grid=0.001",
            "--workers", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_RESOURCE
        assert "density-matrix runs need" in capsys.readouterr().err


class TestFciCommand:
    def test_matches_bundled_reference(self, tmp_path, capsys, h2):
        code = run_cli("fci", "--out", str(tmp_path))
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "fci.json").read_text())
        assert payload["e_fci"] == pytest.approx(h2.fci_energy, abs=1e-9)
        assert payload["e_max"] == pytest.approx(h2.max_energy, abs=1e-9)
        assert (tmp_path / "resolved_config.txt").exists()

    def test_empty_active_space_core_only(self, tmp_path, capsys):
        code = run_cli(
            "fci", "--set", "frozen_occupied=0", "--set", "frozen_virtual=1",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "fci.json").read_text())
        assert payload["n_qubits"] == 0
        assert payload["e_fci"] == payload["core_energy"]
        assert "core energy only" in capsys.readouterr().out

    @pytest.mark.parametrize("frozen", [(), ("frozen_occupied=0",
                                             "frozen_virtual=1")])
    def test_one_hamiltonian_build(self, tmp_path, capsys, monkeypatch,
                                   frozen):
        import vqenoise.chem as chem_module
        import vqenoise.cli as cli_module
        from vqenoise.chem import FrozenCoreSpec, load_fcidump

        calls = []
        real = chem_module.build_hamiltonian

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(chem_module, "build_hamiltonian", counted)
        monkeypatch.setattr(cli_module, "build_hamiltonian", counted)
        settings = [item for key in frozen for item in ("--set", key)]
        assert run_cli("fci", *settings, "--out", str(tmp_path)) == EXIT_OK
        assert len(calls) == 1
        payload = json.loads((tmp_path / "fci.json").read_text())
        spec = FrozenCoreSpec((0,), (1,)) if frozen else FrozenCoreSpec()
        with cli_module.resources.as_file(
                cli_module.data_path("h2_0.7414")) as path:
            ints = load_fcidump(path)
        _, n_so, n_el, shift = real(ints, spec)
        assert (payload["n_qubits"], payload["n_electrons"]) == (n_so, n_el)
        assert payload["core_energy"] == shift
        if frozen:
            assert payload["e_fci"] == payload["e_max"] == shift
        else:
            problem = chem_module.Problem.from_integrals(ints, spec)
            assert payload["e_fci"] == problem.fci_energy
            assert payload["e_max"] == problem.max_energy

    def test_corrupt_fcidump_rejected(self, tmp_path, capsys):
        bad = tmp_path / "junk.fcidump"
        bad.write_text("&FCI NORB=banana\n")
        code = run_cli(
            "fci", "--set", f"fcidump={bad}", "--out", str(tmp_path)
        )
        assert code == EXIT_CONFIG


class TestAdaptCommand:
    def test_reaches_chemical_accuracy(self, tmp_path, capsys, h2):
        code = run_cli(
            "adapt", "--set", "pool=qeb", "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "adapt_record.json").read_text())
        assert payload["status"] == "reached_epsilon_t"
        assert payload["final_energy"] - h2.fci_energy < 1.6e-3
        assert payload["e_fci"] == pytest.approx(h2.fci_energy, abs=1e-9)
        it = payload["iterations"][0]
        assert it["cumulative_cnots"] > 0
        assert len(it["params"]) == 1

    def test_non_converged_optimization_is_recorded(
        self, tmp_path, capsys, h2, monkeypatch
    ):
        import vqenoise.adapt as adapt_module

        real = adapt_module.optimize_parameters

        def unconverged(*args, **kwargs):
            return replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(adapt_module, "optimize_parameters", unconverged)
        record = adapt_module.adapt_run(h2, adapt_module.AdaptConfig())
        assert record.iterations
        assert not any(it.converged for it in record.iterations)
        assert all(it.n_evaluations > 0 for it in record.iterations)

        code = run_cli("adapt", "--out", str(tmp_path))
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "adapt_record.json").read_text())
        assert [it["converged"] for it in payload["iterations"]] \
            == [False] * record.n_iterations
        assert [it["n_evaluations"] for it in payload["iterations"]] \
            == [it.n_evaluations for it in record.iterations]
        assert [it["n_gradients"] for it in payload["iterations"]] \
            == [it.n_gradients for it in record.iterations]
        assert all(it.n_gradients > 0 for it in record.iterations)

    def test_noise_multiplier_scales_growth_p(self, tmp_path, capsys):
        # 5e-4 x 2 is exactly the double nearest 1e-3
        iterations = []
        for growth_p, multiplier in (("5e-4", "2"), ("1e-3", "1")):
            out = tmp_path / growth_p
            run_cli("adapt", "--set", "pool=qubit_pauli",
                    "--set", f"growth_p={growth_p}",
                    "--set", f"noise_multiplier={multiplier}",
                    "--set", "max_iterations=2", "--out", str(out))
            payload = json.loads((out / "adapt_record.json").read_text())
            iterations.append(payload["iterations"])
        assert iterations[0] and iterations[0] == iterations[1]

    def test_zero_iterations_reports_reference(self, tmp_path, capsys, h2):
        code = run_cli(
            "adapt", "--set", "max_iterations=0", "--out", str(tmp_path)
        )
        assert code == EXIT_RESOURCE
        payload = json.loads((tmp_path / "adapt_record.json").read_text())
        assert payload["status"] == "max_iterations"
        assert payload["iterations"] == []
        assert payload["final_energy"] == payload["initial_energy"]


SWEEP_ARGS = ("--set", "pool=qeb", "--set", "p_grid=0,1e-4,1e-3")


class TestSweepCommand:
    def test_csv_schema_and_zero_column(self, tmp_path, capsys, h2):
        out = tmp_path / "s"
        assert run_cli("sweep", *SWEEP_ARGS, "--workers", "1",
                       "--out", str(out)) == EXIT_OK
        digest, header, rows = read_csv(out / "sweep.csv")
        assert header == ["p", "n", "delta_E", "n_ii", "scheme"]
        raw = parse_config_file(out / "resolved_config.txt")
        assert config_hash(resolve_config(raw)) == digest
        hf = QuantumState.from_basis_index(
            hartree_fock_index(h2.n_electrons), h2.n_qubits
        )
        hf_residual = expectation(h2.hamiltonian, hf) - h2.fci_energy
        zero_rows = [r for r in rows if r["p"] == 0]
        assert zero_rows[0]["delta_E"] == pytest.approx(hf_residual, abs=1e-9)
        assert zero_rows[-1]["delta_E"] == pytest.approx(0.0, abs=1e-9)
        assert all(r["scheme"] == "gate_by_gate" for r in rows)

    def test_rows_monotone_in_p(self, tmp_path, capsys):
        out = tmp_path / "s"
        run_cli("sweep", *SWEEP_ARGS, "--workers", "1", "--out", str(out))
        _, _, rows = read_csv(out / "sweep.csv")
        by_n = {}
        for r in rows:
            by_n.setdefault(r["n"], []).append((r["p"], r["delta_E"]))
        for series in by_n.values():
            series.sort()
            deltas = [d for _, d in series]
            assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_floats_survive_round_trip(self, tmp_path, capsys):
        out = tmp_path / "s"
        run_cli("sweep", *SWEEP_ARGS, "--workers", "1", "--out", str(out))
        for line in (out / "sweep.csv").read_text().splitlines()[2:]:
            cell = line.split(",")[2]
            assert format(float(cell), ".17g") == cell

    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        run_cli("sweep", *SWEEP_ARGS, "--workers", "1", "--out", str(out1))
        run_cli("sweep", *SWEEP_ARGS, "--workers", "2", "--out", str(out2))
        assert (out1 / "sweep.csv").read_bytes() == \
            (out2 / "sweep.csv").read_bytes()

    def test_noise_multiplier_scales_grid(self, tmp_path, capsys):
        # 2^-12 x 3 is exact, so both runs simulate the same probabilities
        columns = []
        for grid, multiplier in (("0,0.000244140625", "3"),
                                 ("0,0.000732421875", "1")):
            out = tmp_path / multiplier
            run_cli("sweep", "--set", "pool=qeb", "--set", f"p_grid={grid}",
                    "--set", f"noise_multiplier={multiplier}",
                    "--workers", "1", "--out", str(out))
            lines = (out / "sweep.csv").read_text().splitlines()[2:]
            columns.append([line.split(",")[2] for line in lines])
        assert columns[0] == columns[1]
        half = len(columns[0]) // 2  # rows at p = 0, then at the nonzero p
        assert columns[0][:half] != columns[0][half:]

    def test_fixed_ansatz_prefixes(self, tmp_path, capsys):
        out = tmp_path / "u"
        code = run_cli(
            "sweep", "--set", "ansatz=uccsd", "--set", "pool=qeb",
            "--set", "p_grid=0,1e-4", "--workers", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(out / "sweep.csv")
        lengths = sorted({r["n"] for r in rows})
        assert lengths[0] == 0 and lengths[-1] >= 2
        deepest_clean = [r for r in rows
                         if r["p"] == 0 and r["n"] == lengths[-1]]
        assert deepest_clean[0]["delta_E"] < 1.6e-3


FIXED_ARGS = ("--set", "ansatz=uccsd", "--set", "pool=qeb",
              "--set", "p_grid=0,1e-3", "--workers", "1")


def report_unconverged(monkeypatch):
    """Every optimization reports non-convergence; results are unchanged."""
    import vqenoise.adapt as adapt_module
    import vqenoise.cli as cli_module

    real = adapt_module.optimize_parameters

    def patched(*args, **kwargs):
        return replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(adapt_module, "optimize_parameters", patched)
    monkeypatch.setattr(cli_module, "optimize_parameters", patched)


class TestOptimizerConvergence:
    @pytest.mark.parametrize("ansatz", ["uccsd", "adapt"])
    def test_susceptibility_records_flag(
        self, tmp_path, capsys, monkeypatch, ansatz
    ):
        args = ("susceptibility", "--set", f"ansatz={ansatz}",
                "--set", "pool=qeb")
        assert run_cli(*args, "--out", str(tmp_path / "a")) == EXIT_OK
        payload = json.loads((tmp_path / "a/susceptibility.json").read_text())
        assert payload["optimizer_converged"] is True
        assert "warning:" not in capsys.readouterr().err

        report_unconverged(monkeypatch)
        assert run_cli(*args, "--out", str(tmp_path / "b")) == EXIT_OK
        payload = json.loads((tmp_path / "b/susceptibility.json").read_text())
        assert payload["optimizer_converged"] is False

    @pytest.mark.parametrize("command, csv", [
        ("sweep", "sweep.csv"), ("zne", "zne.csv"),
        ("truncate-scan", "truncate_scan.csv"),
    ])
    def test_grid_commands_warn_with_unchanged_csv(
        self, tmp_path, capsys, monkeypatch, command, csv
    ):
        assert run_cli(command, *FIXED_ARGS, "--out", str(tmp_path / "a")) \
            == EXIT_OK
        assert "warning:" not in capsys.readouterr().err
        report_unconverged(monkeypatch)
        assert run_cli(command, *FIXED_ARGS, "--out", str(tmp_path / "b")) \
            == EXIT_OK
        assert "warning:" in capsys.readouterr().err
        assert (tmp_path / "a" / csv).read_bytes() \
            == (tmp_path / "b" / csv).read_bytes()


class TestSusceptibilityCommand:
    def test_report_self_consistent(self, tmp_path, capsys, h2):
        code = run_cli(
            "susceptibility", "--set", "pool=qeb", "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        payload = json.loads(
            (tmp_path / "susceptibility.json").read_text()
        )
        assert payload["chi"] == pytest.approx(
            payload["delta_e"] * payload["n_ii"], rel=1e-12
        )
        assert len(payload["fluctuations"]) == 3 * payload["n_ii"]
        assert payload["residual"] == pytest.approx(
            payload["e_unperturbed"] - h2.fci_energy, abs=1e-12
        )
        assert 0 < payload["p_c"] < 1e-3

    def test_no_cnot_circuit_flagged(self, tmp_path, capsys):
        code = run_cli(
            "susceptibility", "--set", "max_iterations=0",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        payload = json.loads(
            (tmp_path / "susceptibility.json").read_text()
        )
        assert payload["chi"] == 0.0
        assert not payload["delta_e_defined"]
        assert payload["n_ii"] == 0


class TestZneCommand:
    def test_mitigation_shrinks_error(self, tmp_path, capsys):
        out = tmp_path / "z"
        code = run_cli(
            "zne", "--set", "pool=qeb", "--set", "p_grid=1e-4",
            "--workers", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        _, header, rows = read_csv(out / "zne.csv")
        assert header == ["p", "n", "delta_E", "delta_E_zne", "n_ii",
                          "scheme"]
        deep = [r for r in rows if r["n_ii"] > 0]
        for r in deep:
            assert abs(r["delta_E_zne"]) < 0.1 * abs(r["delta_E"])

    def test_amplified_grid_must_stay_physical(self, tmp_path, capsys):
        code = run_cli(
            "zne", "--set", "p_grid=0.5", "--out", str(tmp_path)
        )
        assert code == EXIT_CONFIG
        assert "zne_multiplier" in capsys.readouterr().err


class TestTruncateScanCommand:
    def test_depth_weakly_decreases_with_noise(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = run_cli(
            "truncate-scan", *SWEEP_ARGS, "--workers", "1",
            "--out", str(out),
        )
        assert code == EXIT_OK
        _, header, rows = read_csv(out / "truncate_scan.csv")
        assert header == ["p", "n_opt", "delta_E"]
        assert rows[0]["p"] == 0
        depths = [r["n_opt"] for r in rows]
        assert all(b <= a for a, b in zip(depths, depths[1:]))
        assert rows[0]["delta_E"] == pytest.approx(0.0, abs=1e-9)
