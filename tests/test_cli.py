"""Command-line behavior: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from locstab import load_set, save_set, upb_44_reducible, upb_qubit3, upb_tiles33
from locstab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def qubit3_file(tmp_path):
    path = tmp_path / "qubit3.json"
    save_set(upb_qubit3(), path)
    return str(path)


@pytest.fixture
def tiles_file(tmp_path):
    path = tmp_path / "tiles.json"
    save_set(upb_tiles33(), path)
    return str(path)


class TestConstruct:
    def test_qubit3_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "qubit3")
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [2, 2, 2]
        assert len(payload["states"]) == 4

    def test_shifts_n3(self, capsys, tmp_path):
        out_path = str(tmp_path / "shifts.json")
        code, out, _ = run_cli(capsys, "construct", "shifts", "--n", "3",
                               "--out", out_path)
        assert code == 0
        summary = json.loads(out)
        assert summary["size"] == 6
        assert summary["dims"] == [2] * 5
        loaded = load_set(out_path)
        assert len(loaded) == 6

    def test_appendix_alias_requires_wide_system(self, capsys):
        code, _, err = run_cli(capsys, "construct", "appendix", "--n", "10")
        assert code == 2
        assert "> 36" in err

    def test_sqrt_subset_small_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "construct", "sqrt-subset", "--n", "10")
        assert code == 2
        assert "> 36" in err

    def test_sqrt_subset_n19(self, capsys, tmp_path):
        out_path = str(tmp_path / "sub.json")
        code, out, _ = run_cli(capsys, "construct", "sqrt-subset", "--n", "19",
                               "--out", out_path)
        assert code == 0
        assert json.loads(out)["size"] == 21

    def test_sqrt_subset_n19_checks_stable_at_default_tolerance(self, capsys, tmp_path):
        out_path = str(tmp_path / "sub.json")
        run_cli(capsys, "construct", "sqrt-subset", "--n", "19", "--out", out_path)
        code, out, _ = run_cli(capsys, "check", out_path, "--audit")
        assert code == 0
        payload = json.loads(out)
        assert payload["stable"] is True
        assert payload["audit"]["disjoint"] is True

    def test_shift_family_name(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "shift-family", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["states"]) == 5
        assert payload["dims"] == [2] * 5

    def test_compose(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "compose",
                               "--left", "qubit3", "--right", "qubit3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["states"]) == 7
        assert payload["dims"] == [2] * 6

    def test_compose_with_sized_operand(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "compose",
                               "--left", "tiles33", "--right", "shifts",
                               "--right-n", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["states"]) == 8
        assert payload["dims"] == [3, 3, 2, 2, 2]

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "shifts")
        assert code == 2
        assert "--n" in err

    def test_unknown_name_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["construct", "mystery"])
        assert excinfo.value.code == 2

    def test_human_summary(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "qubit3", "--human")
        assert code == 0
        assert "size:  4" in out


class TestCheck:
    def test_stable_set_exits_zero(self, capsys, qubit3_file):
        code, out, _ = run_cli(capsys, "check", qubit3_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["stable"] is True
        assert [p["span_dim"] for p in payload["parties"]] == [3, 3, 3]

    def test_unstable_set_exits_one(self, capsys, tmp_path):
        path = tmp_path / "r44.json"
        save_set(upb_44_reducible(), path)
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        assert json.loads(out)["stable"] is False

    def test_duplicate_states_exit_two(self, capsys, tmp_path):
        q3 = upb_qubit3()
        from locstab import StateSet

        path = tmp_path / "dup.json"
        save_set(StateSet(q3.dims, [q3[0], q3[0]], "dup"), path)
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "orthogonal" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "/no/such/file.json")
        assert code == 2

    def test_audit_block_present(self, capsys, qubit3_file):
        code, out, _ = run_cli(capsys, "check", qubit3_file, "--audit")
        assert code == 0
        audit = json.loads(out)["audit"]
        assert audit["disjoint"] is True
        assert audit["pair_budget"] == 12
        assert audit["required_span_total"] == 9

    def test_audit_certifies_once(self, capsys, qubit3_file, monkeypatch):
        import locstab.cli
        import locstab.stability

        calls = []
        original = locstab.stability.is_locally_stable

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(locstab.cli, "is_locally_stable", counted)
        monkeypatch.setattr(locstab.stability, "is_locally_stable", counted)
        code, _, _ = run_cli(capsys, "check", qubit3_file, "--audit")
        assert code == 0
        assert len(calls) == 1

    def test_tolerance_flags_recorded(self, capsys, qubit3_file):
        code, out, _ = run_cli(capsys, "check", qubit3_file, "--tol-orth", "1e-9")
        assert code == 0
        assert json.loads(out)["tolerance"]["orth_abs"] == 1e-9


class TestSubsets:
    def test_sep333_six_subsets(self, capsys, tmp_path):
        run_cli(capsys, "construct", "sep333", "--out", str(tmp_path / "sep.json"))
        code, out, _ = run_cli(capsys, "subsets", str(tmp_path / "sep.json"),
                               "--k", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 7
        assert payload["stable"] == 7
        assert payload["unstable"] == 0

    def test_qubit3_triples_fail(self, capsys, qubit3_file):
        code, out, _ = run_cli(capsys, "subsets", qubit3_file, "--k", "3")
        assert code == 1
        assert json.loads(out)["unstable"] == 4

    def test_k_too_large(self, capsys, qubit3_file):
        code, _, err = run_cli(capsys, "subsets", qubit3_file, "--k", "9")
        assert code == 2


class TestBound:
    def test_three_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--dims", "2,2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_size"] == 4
        assert payload["trivial_upb_bound"] == 4

    def test_three_qutrits(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--dims", "3,3,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_size"] == 6
        assert payload["trivial_upb_bound"] == 7
        assert payload["upper_bounds"]["qutrit_composition"] == 6

    def test_qubit_bounds_block(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--dims", ",".join(["2"] * 9))
        payload = json.loads(out)
        assert payload["upper_bounds"]["qubit_upb"] == 10
        assert payload["upper_bounds"]["qubit_subset"] == 7

    def test_single_party_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--dims", "2")
        assert code == 2

    def test_dimension_one_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--dims", "2,1")
        assert code == 2


class TestComplement:
    def test_extendible_trio_found(self, capsys, tmp_path):
        from locstab import ProductState, StateSet

        e0, e1 = [1.0, 0.0], [0.0, 1.0]
        trio = StateSet((2, 2), [
            ProductState([e0, e0]), ProductState([e0, e1]), ProductState([e1, e0]),
        ], "trio")
        path = tmp_path / "trio.json"
        save_set(trio, path)
        code, out, _ = run_cli(capsys, "complement", str(path), "--restarts", "10",
                               "--iters", "50")
        assert code == 1
        payload = json.loads(out)
        assert payload["best_overlap"] == pytest.approx(1.0, abs=1e-6)
        assert payload["product_state_found"] is True

    def test_tiles_no_product_state(self, capsys, tiles_file):
        code, out, _ = run_cli(capsys, "complement", tiles_file,
                               "--restarts", "15", "--iters", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_overlap"] < 1 - 1e-3

    def test_complete_set_rejected(self, capsys, tmp_path):
        from locstab import ProductState, StateSet

        e = [[1.0, 0.0], [0.0, 1.0]]
        states = [ProductState([e[i], e[j]]) for i in range(2) for j in range(2)]
        path = tmp_path / "full.json"
        save_set(StateSet((2, 2), states, "full"), path)
        code, _, err = run_cli(capsys, "complement", str(path))
        assert code == 2


class TestInputErrors:
    """Each input error exits 2 with one error line on stderr and nothing
    on stdout."""

    @staticmethod
    def assert_input_error(code, out, err):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_check_empty_set(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dims": [2, 2], "states": []}))
        self.assert_input_error(*run_cli(capsys, "check", str(path)))

    def test_subsets_of_non_orthogonal_set(self, capsys, tmp_path):
        from locstab import StateSet

        q3 = upb_qubit3()
        path = tmp_path / "dup.json"
        save_set(StateSet(q3.dims, [q3[0], q3[0], q3[1]], "dup"), path)
        code, out, err = run_cli(capsys, "subsets", str(path), "--k", "2")
        self.assert_input_error(code, out, err)
        assert "orthogonal" in err

    def test_check_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"label": "\xff", "dims": [2, 2], "states": []}')
        self.assert_input_error(*run_cli(capsys, "check", str(path)))


class TestDeterminism:
    def test_identical_command_lines_identical_bytes(self, capsys, qubit3_file):
        _, out1, _ = run_cli(capsys, "check", qubit3_file)
        _, out2, _ = run_cli(capsys, "check", qubit3_file)
        assert out1 == out2
        _, c1, _ = run_cli(capsys, "construct", "shifts", "--n", "4")
        _, c2, _ = run_cli(capsys, "construct", "shifts", "--n", "4")
        assert c1 == c2

    def test_complement_seeded_determinism(self, capsys, tiles_file):
        _, out1, _ = run_cli(capsys, "complement", tiles_file, "--restarts", "5",
                             "--iters", "50", "--seed", "7")
        _, out2, _ = run_cli(capsys, "complement", tiles_file, "--restarts", "5",
                             "--iters", "50", "--seed", "7")
        assert out1 == out2


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "locstab", "bound", "--dims", "3,3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["min_size"] == 5
