"""Command-line interface: flows, exit codes, and determinism."""
import importlib
import json
import re
from pathlib import Path

import pytest

from subsidy_fairdiv import (
    CHORES,
    Instance,
    ModelError,
    parse_allocation,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from subsidy_fairdiv.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def istar_file(reference_instance, tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(serialize_instance(reference_instance))
    return path


def test_allocate_reference(istar_file, tmp_path, capsys):
    out = tmp_path / "alloc.json"
    cert = tmp_path / "cert.json"
    dot = tmp_path / "graph.dot"
    code = main(
        [
            "allocate",
            "--input", str(istar_file),
            "--out", str(out),
            "--certificate", str(cert),
            "--emit-graph", str(dot),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["total_subsidy"] == "7/10"
    assert doc["bound_holds"] is True
    assert doc["global_bound"] == "11/6"
    cert_doc = json.loads(cert.read_text())
    assert cert_doc["holds"] is True
    assert cert_doc["strong_bound"] == "5/3"
    assert dot.read_text().startswith("digraph")
    assert "total subsidy 7/10" in capsys.readouterr().out


def test_allocate_single_agent(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(
        '{"kind": "chores", "weights": ["1"], "costs": [["0.4", "0.9"]]}\n'
    )
    out = tmp_path / "alloc.json"
    assert main(["allocate", "--input", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["subsidies"] == ["0"]
    assert doc["owner"] == [0, 0]


def test_allocate_baseline_flag(istar_file, tmp_path):
    out = tmp_path / "alloc.json"
    assert main(["allocate", "--input", str(istar_file), "--out", str(out), "--baseline"]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "baseline"
    assert doc["global_bound"] == "5/2"


def test_allocate_decimal_rendering(istar_file, tmp_path):
    out = tmp_path / "alloc.json"
    assert main(
        ["allocate", "--input", str(istar_file), "--out", str(out), "--decimal", "4"]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["total_subsidy_decimal"] == "0.7000"


def test_allocate_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "chores", "weights": [0.5], "costs"')
    assert main(["allocate", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_allocate_invalid_instance(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text(
        '{"kind": "chores", "weights": ["1/2", "1/3"], "costs": [["1"], ["1"]]}'
    )
    assert main(["allocate", "--input", str(path)]) == 2
    assert "sum" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["agent_names", "item_names"])
def test_allocate_rejects_non_string_names(field, tmp_path, capsys):
    path = tmp_path / "named.json"
    doc = {"kind": "chores", "weights": ["1/2", "1/2"], "costs": [["1", "1"], ["1", "1"]]}
    doc[field] = [1, 2]
    path.write_text(json.dumps(doc))
    out = tmp_path / "alloc.json"
    dot = tmp_path / "graph.dot"
    argv = ["allocate", "--input", str(path), "--out", str(out), "--emit-graph", str(dot)]
    assert main(argv) == 2
    assert f"{field} entries must be strings" in capsys.readouterr().err
    assert not out.exists() and not dot.exists()


@pytest.mark.parametrize("field", ["agent_names", "item_names"])
def test_allocate_rejects_names_with_a_lone_surrogate(field, tmp_path, capsys):
    # JSON can spell a lone surrogate ("\ud800"), which UTF-8 cannot encode
    message = f"{field} entries must be encodable as UTF-8"
    names = {field: ("\ud800", "b")}
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")), **names)
    assert validate_instance(inst) == (message,)
    path = tmp_path / "named.json"
    doc = {"kind": "chores", "weights": ["1/2", "1/2"], "costs": [["1", "1"], ["1", "1"]]}
    doc[field] = list(names[field])
    path.write_text(json.dumps(doc))
    argv = ["allocate", "--input", str(path), "--out", str(tmp_path / "alloc.json")]
    argv += ["--certificate", str(tmp_path / "cert.json")]
    argv += ["--emit-graph", str(tmp_path / "graph.dot")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: invalid instance: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


HOSTILE_INPUTS = {
    "deep_nesting": b"[" * 200_000 + b"]" * 200_000,
    "long_cost_literal": b'{"kind": "chores", "weights": ["1"], "costs": [[1' + b"0" * 4400 + b"]]}",
    "not_utf8": b'{"kind": "chores", "weights": ["1"], "costs": [["1"]], "item_names": ["\xe9"]}',
}


@pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
def test_allocate_rejects_hostile_input(name, tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_bytes(HOSTILE_INPUTS[name])
    assert main(["allocate", "--input", str(path)]) == 2
    assert_one_error_line(capsys)


def test_verify_rejects_long_owner_literal(istar_file, tmp_path, capsys):
    path = tmp_path / "alloc.json"
    path.write_text('{"owner": [1' + "0" * 4400 + "]}")
    assert main(["verify", "--input", str(istar_file), "--allocation", str(path)]) == 2
    assert_one_error_line(capsys)


def test_allocate_unwritable_out(istar_file, tmp_path, capsys):
    out = tmp_path / "missing" / "alloc.json"
    assert main(["allocate", "--input", str(istar_file), "--out", str(out)]) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("flag", ["--certificate", "--emit-graph"])
@pytest.mark.parametrize("blocked", ["missing_dir", "directory"])
def test_allocate_leaves_no_partial_output(flag, blocked, istar_file, tmp_path, capsys):
    # a later document that cannot be written leaves every named file as it was
    (tmp_path / "dir").mkdir()
    target = tmp_path / "missing" / "doc" if blocked == "missing_dir" else tmp_path / "dir"
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    for out in (kept, tmp_path / "new.json"):
        args = ["allocate", "--input", str(istar_file), "--out", str(out), flag, str(target)]
        assert main(args) == 2
        assert_one_error_line(capsys)
    assert kept.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("flag", ["--certificate", "--emit-graph"])
@pytest.mark.parametrize("spelling", ["x.json", "./x.json"])
def test_allocate_rejects_two_outputs_naming_one_file(
    flag, spelling, istar_file, tmp_path, capsys, monkeypatch
):
    # writing both would leave only the later document in the file
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "x.json"
    args = ["allocate", "--input", str(istar_file), "--out", str(target), flag, spelling]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(args) == 2
    assert_one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    target.write_text("old\n")
    assert main(args) == 2
    assert_one_error_line(capsys)
    assert target.read_text() == "old\n"


def test_allocate_missing_file(tmp_path):
    assert main(["allocate", "--input", str(tmp_path / "nope.json")]) == 2


def test_allocate_is_byte_deterministic(istar_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["allocate", "--input", str(istar_file), "--out", str(a)])
    main(["allocate", "--input", str(istar_file), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_pipeline_output(istar_file, tmp_path, capsys):
    out = tmp_path / "alloc.json"
    main(["allocate", "--input", str(istar_file), "--out", str(out)])
    code = main(["verify", "--input", str(istar_file), "--allocation", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "total subsidy 7/10" in text
    assert text.count("ok") >= 6


def test_goods_flow_end_to_end(tmp_path, capsys):
    gen = tmp_path / "goods.json"
    out = tmp_path / "alloc.json"
    assert main(
        ["gen", "--agents", "5", "--items", "9", "--kind", "goods",
         "--seed", "11", "--out", str(gen)]
    ) == 0
    assert main(["allocate", "--input", str(gen), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "goods"
    assert doc["global_bound"] == "5/3"
    assert doc["bound_holds"] is True
    assert main(["verify", "--input", str(gen), "--allocation", str(out)]) == 0
    assert main(["oracle", "--input", str(gen)]) == 0


def test_verify_rejects_wrong_dimensions(istar_file, tmp_path, capsys):
    path = tmp_path / "alloc.json"
    path.write_text('{"owner": [0, 1]}')
    assert main(["verify", "--input", str(istar_file), "--allocation", str(path)]) == 2


def test_verify_rejects_boolean_owners(istar_file, tmp_path, capsys):
    text = '{"owner": [true, false, 0, 0, 0, 0]}'
    with pytest.raises(ModelError, match="agent indices"):
        parse_allocation(text)
    path = tmp_path / "alloc.json"
    path.write_text(text)
    assert main(["verify", "--input", str(istar_file), "--allocation", str(path)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "chores", "weights": ["1/4", "1/4"], "costs": [["1"], ["1"]]},
        {"kind": "chores", "weights": ["1/2", "1/2"], "costs": [["3/2"], ["1"]]},
    ],
    ids=["weights_sum_half", "cost_three_halves"],
)
def test_well_formed_but_invalid_instance_is_rejected(doc, tmp_path, capsys):
    text = json.dumps(doc)
    with pytest.raises(ModelError, match="invalid instance"):
        parse_instance(text)
    instance = tmp_path / "instance.json"
    instance.write_text(text)
    allocation = tmp_path / "alloc.json"
    allocation.write_text(json.dumps({"owner": [0]}))
    assert main(["verify", "--input", str(instance), "--allocation", str(allocation)]) == 2
    assert "invalid instance" in capsys.readouterr().err


def test_verify_reports_underfunded_agent(istar_file, tmp_path, capsys):
    path = tmp_path / "alloc.json"
    # all items to agent 0 with a claimed subsidy that is too small
    path.write_text(
        json.dumps(
            {
                "owner": [0, 0, 0, 0, 0, 0],
                "subsidies": ["1", "0", "0", "0", "0", "0"],
            }
        )
    )
    code = main(["verify", "--input", str(istar_file), "--allocation", str(path)])
    assert code == 1
    text = capsys.readouterr().out
    assert "VIOLATED" in text
    assert "agent 0" in text


def test_verify_recomputes_minimum_subsidies(istar_file, tmp_path, capsys):
    path = tmp_path / "alloc.json"
    path.write_text(json.dumps({"owner": [0, 0, 0, 0, 0, 0]}))
    assert main(["verify", "--input", str(istar_file), "--allocation", str(path)]) == 0


def test_oracle_command(istar_file, capsys):
    assert main(["oracle", "--input", str(istar_file)]) == 0
    text = capsys.readouterr().out
    assert "optimum subsidy 7/10" in text
    assert "pipeline subsidy 7/10" in text
    assert "gap 0" in text


def test_oracle_cap_exceeded(tmp_path, capsys):
    # n agents over n-1 unit-cost items: every agent fills mid-item, so
    # all n-1 items are shared and the assignment space is 2^(n-1).
    n = 12
    doc = {
        "kind": "chores",
        "weights": [f"1/{n}"] * n,
        "costs": [["1"] * (n - 1) for _ in range(n)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--input", str(path), "--cap", "4"]) == 3


def test_gen_command(tmp_path):
    out = tmp_path / "gen.json"
    assert main(
        ["gen", "--agents", "3", "--items", "5", "--seed", "7", "--out", str(out)]
    ) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert len(doc["weights"]) == 3
    assert len(doc["costs"][0]) == 5
    # deterministic: regenerating gives identical bytes
    out2 = tmp_path / "gen2.json"
    main(["gen", "--agents", "3", "--items", "5", "--seed", "7", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_gen_single_agent(tmp_path):
    out = tmp_path / "one.json"
    assert main(["gen", "--agents", "1", "--items", "3", "--seed", "7", "--out", str(out)]) == 0
    assert main(["allocate", "--input", str(out)]) == 0


def test_gen_rejects_bad_params(capsys):
    assert main(["gen", "--agents", "0", "--items", "3"]) == 2


def test_console_script_resolves_to_main():
    text = (ROOT / "pyproject.toml").read_text()
    module, attr = re.search(r'^subsidy-fairdiv = "([\w.]+):(\w+)"$', text, re.M).groups()
    assert (module, attr) == ("subsidy_fairdiv.cli", "main")
    assert getattr(importlib.import_module(module), attr) is main


def test_help_lists_the_four_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{allocate,verify,oracle,gen}" in capsys.readouterr().out


def test_bench_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
