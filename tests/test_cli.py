"""Command-line behavior: outputs, exit codes, determinism."""

import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import golden_guard
import locstab._jsonout
import locstab.cli
import locstab.stability
import locstab.states
from locstab import (
    DEFAULT_TOL,
    DenseState,
    ProductState,
    StateSet,
    entangled_triple,
    load_set,
    save_set,
    subset_campaign,
    tensor_expand,
    upb_44_reducible,
    upb_qubit3,
    upb_shifts,
    upb_tiles33,
)
from locstab._jsonout import dumps
from locstab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_search(*args, **kwargs):
    raise AssertionError("the see-saw search ran")


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["shift-family", "--n", "100"],
            ["compose", "--left", "tiles33", "--right", "qubit3"],
            ["qubit3"],
            ["triple"],
        ],
    )
    def test_stdout_is_the_out_file(self, capsys, tmp_path, monkeypatch, argv):
        # without --out the set goes to stdout through save_set's writer, in
        # the file's bytes; no set, product or dense, reaches the JSON writer
        path = tmp_path / "set.json"
        code, _, _ = run_cli(capsys, "construct", *argv, "--out", str(path))
        assert code == 0
        for name in ("dumps", "_number_block"):
            monkeypatch.setattr(locstab._jsonout, name, None)
        code, out, _ = run_cli(capsys, "construct", *argv)
        assert code == 0
        assert out.encode() == path.read_bytes()


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

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    def test_extreme_amplitudes_check_like_unit_ones(self, capsys, tmp_path, scale):
        text = (
            '{"label": "x", "dims": [2, 2], "states": ['
            '{"product": [[[%s, 0], [%s, 0]], [[1, 0], [0, 0]]]}, '
            '{"product": [[[1, 0], [-1, 0]], [[0, 0], [1, 0]]]}]}'
        )
        scaled, unit = tmp_path / "scaled.json", tmp_path / "unit.json"
        scaled.write_text(text % (scale, scale))
        unit.write_text(text % (1, 1))
        for a, b in zip(load_set(scaled), load_set(unit)):
            assert [f.tobytes() for f in a.factors] == [f.tobytes() for f in b.factors]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli(capsys, "check", str(scaled))
        assert result == run_cli(capsys, "check", str(unit))
        assert result[0] == 1 and result[2] == ""

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

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_sample_without_draws_exits_two(self, capsys, qubit3_file, size):
        code, out, err = run_cli(capsys, "subsets", qubit3_file, "--k", "2",
                                 "--threshold", "0", "--sample", size)
        assert code == 2
        assert out == ""
        assert err.startswith("error: sample size")

    def test_payload_is_the_report_field_by_field(self, capsys, tmp_path):
        path = tmp_path / "reducible.json"
        save_set(upb_44_reducible(), path)
        report = subset_campaign(upb_44_reducible(), 10)
        code, out, _ = run_cli(capsys, "subsets", str(path), "--k", "10")
        assert code == 1
        assert out == dumps(dataclasses.asdict(report)) + "\n"
        assert report.to_dict() == json.loads(json.dumps(dataclasses.asdict(report)))


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
        code, out, _ = run_cli(capsys, "complement", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["method"] == "partition"
        assert payload["verdict"] == "extendible"
        assert payload["product_state_found"] is True
        assert sorted(j for group in payload["groups"] for j in group) == [0, 1, 2]
        # the witness is |11> up to phases, orthogonal to every state
        witness = [np.array([complex(*z) for z in factor]) for factor in payload["witness"]]
        for state in trio.states:
            assert min(abs(np.vdot(v, a)) for v, a in zip(witness, state.factors)) < 1e-10
        assert [abs(v[1]) for v in witness] == pytest.approx([1.0, 1.0])

    def test_tiles_no_product_state(self, capsys, tiles_file):
        code, out, _ = run_cli(capsys, "complement", tiles_file)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["label", "method", "verdict", "product_state_found",
                                 "witness", "groups", "capacities", "nodes"]
        assert payload["verdict"] == "unextendible"
        assert payload["product_state_found"] is False
        assert payload["witness"] is None and payload["groups"] is None
        assert payload["capacities"] == [2, 2]
        assert payload["nodes"] == 0

    def test_tiles_human(self, capsys, tiles_file):
        code, out, _ = run_cli(capsys, "complement", tiles_file, "--human")
        assert code == 0
        assert out == (
            "label:      tiles-3x3\n"
            "verdict:    unextendible\n"
            "capacities: 4 for 5 states\n"
            "nodes:      0\n"
        )

    def test_wide_shift_upb_proved_unextendible(self, capsys, tmp_path):
        # N = 127 qubits: beyond the see-saw's dense limit of 2**20
        path = tmp_path / "shifts64.json"
        save_set(upb_shifts(64), path)
        code, out, err = run_cli(capsys, "complement", str(path))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["verdict"] == "unextendible"
        assert sum(payload["capacities"]) == 127

    def test_capped_search_exits_one_undecided(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "reducible.json"
        save_set(upb_44_reducible(), path)
        monkeypatch.setattr(locstab.stability, "_EXTENSION_NODES", 5)
        code, out, _ = run_cli(capsys, "complement", str(path))
        assert code == 1
        payload = json.loads(out)
        assert (payload["verdict"], payload["nodes"]) == ("undecided", 5)
        assert payload["product_state_found"] is False

    @pytest.mark.parametrize("parties", range(3, 9))
    def test_entangled_triple_settled_by_the_dimension_count(
        self, capsys, tmp_path, monkeypatch, parties
    ):
        monkeypatch.setattr(locstab.stability, "_see_saw", _no_search)
        path = tmp_path / "triple.json"
        save_set(entangled_triple(parties), path)
        outputs = set()
        for iters in ("1", "10", "200"):
            code, out, err = run_cli(capsys, "complement", str(path), "--iters", iters)
            assert (code, err) == (1, "")
            outputs.add(out)
        assert len(outputs) == 1
        assert json.loads(out) == {
            "label": f"ghz-w-triple-{parties}q",
            "method": "dimension-count",
            "verdict": "extendible",
            "product_state_found": True,
            "witness": None,
            "groups": None,
            "capacities": None,
            "nodes": None,
        }
        code, out, _ = run_cli(capsys, "complement", str(path), "--human")
        assert code == 1
        assert out == (
            f"label:      ghz-w-triple-{parties}q\n"
            "method:     dimension-count\n"
            "verdict:    extendible\n"
        )

    @pytest.mark.parametrize("name", ["qubit3", "tiles33", "sep333", "reducible44"])
    def test_dense_upb_expansions_proved_unextendible(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.setattr(locstab.stability, "_see_saw", _no_search)
        state_set = load_set(self._constructed(capsys, tmp_path, name))
        dense = StateSet(state_set.dims, [tensor_expand(s) for s in state_set], "dense")
        path = tmp_path / "dense.json"
        save_set(dense, path)
        code, out, _ = run_cli(capsys, "complement", str(path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["method"], payload["verdict"]) == ("partition", "unextendible")
        _, product_out, _ = run_cli(
            capsys, "complement", self._constructed(capsys, tmp_path, name)
        )
        product = json.loads(product_out)
        assert payload == dict(product, label="dense")

    @staticmethod
    def _constructed(capsys, tmp_path, name):
        path = str(tmp_path / f"{name}.json")
        assert run_cli(capsys, "construct", name, "--out", path)[0] == 0
        return path

    def test_seesaw_payload(self, capsys, tmp_path):
        # {Phi+, Phi-, |01>}: one state past the dimension count, one member
        # entangled, so the see-saw looks for the missing |10>
        states = [
            DenseState([1, 0, 0, 1], (2, 2)),
            DenseState([1, 0, 0, -1], (2, 2)),
            ProductState([[1, 0], [0, 1]]),
        ]
        path = tmp_path / "bell.json"
        save_set(StateSet((2, 2), states, "bell"), path)
        argv = ["complement", str(path), "--restarts", "4", "--iters", "20", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        payload = json.loads(out)
        assert list(payload) == ["label", "method", "verdict", "product_state_found",
                                 "witness", "groups", "capacities", "nodes",
                                 "restarts", "iters", "seed", "residual", "sweeps", "capped"]
        assert (payload["method"], payload["verdict"]) == ("see-saw", "extendible")
        assert payload["product_state_found"] is True
        witness = [np.array([complex(*z) for z in factor]) for factor in payload["witness"]]
        assert [abs(witness[0][1]), abs(witness[1][0])] == pytest.approx([1.0, 1.0])
        assert (payload["restarts"], payload["iters"], payload["seed"]) == (4, 20, 3)
        assert payload["residual"] == pytest.approx(0.0, abs=1e-12)
        assert payload["capped"] is False and 4 <= payload["sweeps"] < 80
        code, out, _ = run_cli(capsys, *argv, "--human")
        assert code == 1
        assert out == (
            "label:      bell\n"
            "method:     see-saw\n"
            "verdict:    extendible\n"
            f"residual:   {payload['residual']:.3e}\n"
            f"sweeps:     {payload['sweeps']}\n"
        )

    def test_near_orthogonal_dense_pair_gets_a_verdict(self, capsys, tmp_path):
        # factor overlaps 1e-6 at both parties, stored dense: check accepts
        # the pair (full inner product 1e-12), and so does complement
        near = [1e-6, 1.0]
        products = [ProductState([[1.0, 0.0], [1.0, 0.0]]), ProductState([near, near])]
        state_set = StateSet((2, 2), [tensor_expand(p) for p in products], "near")
        path = tmp_path / "near.json"
        save_set(state_set, path)
        assert run_cli(capsys, "check", str(path))[0] == 1
        code, out, err = run_cli(capsys, "complement", str(path))
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["method"], payload["verdict"]) == ("partition", "extendible")
        witness = ProductState(
            [np.array([complex(*z) for z in factor]) for factor in payload["witness"]]
        )
        phi = tensor_expand(witness).amplitudes
        for state in state_set.states:
            assert abs(np.vdot(phi, state.amplitudes)) < DEFAULT_TOL.orth_abs

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

    @pytest.mark.parametrize("number", ["1" + "0" * 400, "1e400", "NaN"])
    def test_check_number_that_is_not_a_finite_float(self, capsys, tmp_path, number):
        path = tmp_path / "number.json"
        path.write_text(
            '{"dims": [2, 2], "states": [{"product": [[[%s, 0], [0, 1]], [[1, 0], [0, 0]]]}]}'
            % number
        )
        code, out, err = run_cli(capsys, "check", str(path))
        self.assert_input_error(code, out, err)
        assert err == "error: states[0].product[0][0]: numbers must be finite floats\n"

    def test_check_file_nested_too_deep(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        code, out, err = run_cli(capsys, "check", str(path))
        self.assert_input_error(code, out, err)
        assert err == "error: invalid JSON: nesting too deep\n"

    def test_check_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"label": "\xff", "dims": [2, 2], "states": []}')
        self.assert_input_error(*run_cli(capsys, "check", str(path)))

    @pytest.mark.parametrize("flag", ["--left-index", "--right-index"])
    @pytest.mark.parametrize("index", ["9", "4", "-1"])
    def test_compose_index_out_of_range(self, capsys, flag, index):
        code, out, err = run_cli(capsys, "construct", "compose", "--left", "qubit3",
                                 "--right", "qubit3", flag, index)
        self.assert_input_error(code, out, err)
        assert f"{flag} {index} out of range" in err

    def test_audit_of_dense_set_rejected_before_certifying(
        self, capsys, tmp_path, monkeypatch
    ):
        from locstab import StateSet, tensor_expand

        q3 = upb_qubit3()
        path = tmp_path / "dense.json"
        save_set(StateSet(q3.dims, [tensor_expand(s) for s in q3], "dense"), path)
        calls = []
        monkeypatch.setattr(locstab.cli, "is_locally_stable",
                            lambda *args, **kwargs: calls.append(args))
        code, out, err = run_cli(capsys, "check", str(path), "--audit")
        self.assert_input_error(code, out, err)
        assert err == "error: --audit needs an all-product set\n"
        assert calls == []

    @pytest.mark.parametrize("message", ["Unable to allocate 4.66 TiB", ""])
    def test_failed_allocation_exits_two(self, capsys, monkeypatch, message):
        # a builder that runs out of memory stands in for a giant --n: a real
        # allocation of that size would be paged in on overcommitting hosts
        def exhausted(n):
            raise MemoryError(message)

        monkeypatch.setitem(locstab.cli._CONSTRUCTIONS, "shift-family", (exhausted, True))
        code, out, err = run_cli(capsys, "construct", "shift-family", "--n", "200000")
        self.assert_input_error(code, out, err)
        assert err == f"error: not enough memory{': ' + message if message else ''}\n"


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

    def test_shared_parser_answers_like_a_fresh_one(self, capsys, qubit3_file):
        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        calls = [
            ["check", qubit3_file, "--human"],
            ["check", qubit3_file],
            ["check", qubit3_file, "--no-such-flag"],
            ["subsets", qubit3_file, "--k", "3"],
            ["construct", "qubit3"],
        ]
        first = []
        for argv in calls:
            build_parser.cache_clear()
            first.append(call(argv))
        assert first[2][0] == 2
        assert [call(argv) for argv in calls] == first


class TestGoldenGuard:
    def test_snapshots_match_and_a_planted_byte_is_reported(self, tmp_path, monkeypatch, capsys):
        # the guard on a small slice: two snapshots of one tree agree; one
        # byte more on every JSON stdout is reported there and nowhere else
        sets = ["--sets", "qubit3", "triple"]
        first, second, planted = (str(tmp_path / f"{name}.json") for name in "abc")
        assert golden_guard.main(["snapshot", first, *sets]) == 0
        assert golden_guard.main(["snapshot", second, *sets]) == 0
        assert golden_guard.main(["compare", first, second]) == 0
        real = locstab._jsonout.dumps
        monkeypatch.setattr(locstab._jsonout, "dumps", lambda payload: real(payload) + " ")
        assert golden_guard.main(["snapshot", planted, *sets]) == 0
        capsys.readouterr()
        assert golden_guard.main(["compare", first, planted]) == 1
        lines = capsys.readouterr().out.splitlines()
        with open(first, encoding="utf-8") as fh:
            entries = json.load(fh)
        assert {"file qubit3.json", "file qubit3-dense.json", "file triple.json"} <= set(entries)
        assert "differs: check qubit3.json" in lines
        assert "differs: bound --dims 2,2,2" in lines
        # --human text, saved files and error messages carry no JSON
        assert "differs: check triple.json --audit" not in lines
        assert not any("--human" in line or "file " in line for line in lines)
        assert lines[-1] == f"{len(lines) - 1} of {len(entries)} entries differ"


class TestFlagsPerSubcommand:
    """Each subcommand takes only the flags it reads; any other flag is a
    usage error (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "qubit3", "--seed", "1"],
            ["check", "{set}", "--seed", "1"],
            ["bound", "--dims", "2,2", "--seed", "1"],
            ["bound", "--dims", "2,2", "--tol-rank", "1e-6"],
            ["bound", "--dims", "2,2", "--tol-orth", "1e-6"],
            # no construction reads a tolerance
            ["construct", "shifts", "--n", "3", "--tol-orth", "1e-9"],
            ["construct", "compose", "--left", "qubit3", "--right", "shifts",
             "--right-n", "3", "--tol-rank", "1e-9"],
            ["construct", "qubit3", "--tol-orth", "1e-9"],
            ["construct", "tiles33", "--tol-rank", "1e-9"],
            ["construct", "compose", "--left", "qubit3", "--right", "tiles33",
             "--tol-orth", "1e-9"],
        ],
    )
    def test_unread_flag_exits_two(self, capsys, qubit3_file, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([qubit3_file if arg == "{set}" else arg for arg in argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["subsets", "{set}", "--k", "2", "--seed", "1", "--tol-orth", "1e-9"],
            ["complement", "{set}", "--seed", "1", "--tol-rank", "1e-6"],
            ["check", "{set}", "--tol-rank", "1e-6", "--tol-orth", "1e-9"],
        ],
    )
    def test_read_flags_accepted(self, capsys, qubit3_file, argv):
        code, out, _ = run_cli(capsys, *[qubit3_file if a == "{set}" else a for a in argv])
        assert code in (0, 1)
        assert out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["construct", "qubit3", "--n", "5"], "--n"),
            (["construct", "shifts", "--n", "3", "--left", "qubit3"], "--left"),
            (["construct", "qubit3", "--right", "tiles33"], "--right"),
            (["construct", "qubit3", "--left-n", "3"], "--left-n"),
            (["construct", "shift-family", "--n", "3", "--right-n", "3"], "--right-n"),
            (["construct", "qubit3", "--left-index", "0"], "--left-index"),
            (["construct", "tiles33", "--right-index", "1"], "--right-index"),
            (["construct", "compose", "--left", "qubit3", "--right", "qubit3", "--n", "4"], "--n"),
            (["construct", "compose", "--left", "qubit3", "--left-n", "3",
              "--right", "shifts", "--right-n", "3"], "--left-n"),
            (["construct", "compose", "--left", "shifts", "--left-n", "3",
              "--right", "tiles33", "--right-n", "2"], "--right-n"),
        ],
    )
    def test_construct_refuses_flags_it_does_not_read(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    def test_compose_reads_unset_indices_as_zero(self, capsys):
        argv = ["construct", "compose", "--left", "qubit3", "--right", "tiles33"]
        _, default, _ = run_cli(capsys, *argv)
        code, explicit, _ = run_cli(capsys, *argv, "--left-index", "0", "--right-index", "0")
        assert code == 0
        assert explicit == default


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "locstab", "bound", "--dims", "3,3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["min_size"] == 5
