"""Command-line interface: flows, exit codes, and determinism."""
import importlib
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subsidy_fairdiv import (
    CHORES,
    Instance,
    ModelError,
    gen_random_instance,
    parse_allocation,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from subsidy_fairdiv import rounding
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


TOO_LONG = f"<a rational of more than {sys.get_int_max_str_digits()} digits>"

# each message shows a rational whose numerator or denominator has 4,301
# digits, which str() refuses to write
UNPRINTABLE = [
    ({"kind": "chores", "weights": ["1e-4300", "1"], "costs": [["1/2"], ["1/2"]]},
     f"weights sum to {TOO_LONG}, not 1"),
    ({"kind": "chores", "weights": ["1"], "costs": [["1e4300"]]},
     f"cost of item 0 for agent 0 is {TOO_LONG}, exceeds 1"),
    ({"kind": "chores", "weights": ["1"], "costs": [["-1e4300"]]},
     f"cost of item 0 for agent 0 is {TOO_LONG}, below 0"),
]
UNPRINTABLE_IDS = ["weight_sum", "cost_above_one", "cost_below_zero"]


@pytest.mark.parametrize("doc, message", UNPRINTABLE, ids=UNPRINTABLE_IDS)
def test_allocate_refuses_an_instance_whose_violation_is_unprintable(
    doc, message, tmp_path, capsys
):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "alloc.json"
    assert main(["allocate", "--input", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: invalid instance: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("doc, message", UNPRINTABLE[:2], ids=UNPRINTABLE_IDS[:2])
def test_validate_instance_shows_an_unprintable_rational(doc, message):
    inst = Instance(doc["kind"], doc["weights"], doc["costs"])
    assert validate_instance(inst) == (message,)


def test_verify_refuses_an_unprintable_negative_subsidy(istar_file, tmp_path, capsys):
    path = tmp_path / "alloc.json"
    path.write_text(json.dumps({"owner": [0] * 6, "subsidies": ["-1e-4300", "0"]}))
    assert main(["verify", "--input", str(istar_file), "--allocation", str(path)]) == 2
    assert capsys.readouterr().err == f"error: subsidies[0]: {TOO_LONG} is negative\n"
    assert sorted(tmp_path.iterdir()) == sorted([istar_file, path])


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


@pytest.mark.parametrize("target", ["existing", "dangling"])
def test_allocate_writes_through_a_symlink(target, istar_file, tmp_path):
    # the link stays a link and the file it names gets the allocation
    real = tmp_path / "real.json"
    if target == "existing":
        real.write_text("{}\n")
    link = tmp_path / "link.json"
    link.symlink_to(real.name)
    plain = tmp_path / "plain.json"
    assert main(["allocate", "--input", str(istar_file), "--out", str(plain)]) == 0
    assert main(["allocate", "--input", str(istar_file), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.json", "plain.json", "real.json", "reference.json"
    ]


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


def test_verify_rejects_negative_subsidies(tmp_path, capsys):
    # without the check every agent reads ok and the total 1/2 is below the 7/10 minimum
    fixture = str(ROOT / "fixtures" / "reference_6x6.json")
    path = tmp_path / "alloc.json"
    assert main(["allocate", "--input", fixture, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["subsidies"] = ["3/10", "2/5", "-1/5", "0", "0", "0"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=r"subsidies\[2\]"):
        parse_allocation(path.read_text())
    capsys.readouterr()
    assert main(["verify", "--input", fixture, "--allocation", str(path)]) == 2
    assert capsys.readouterr().err == "error: subsidies[2]: -1/5 is negative\n"


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


def test_oracle_compares_the_optimum_with_the_rounded_total(capsys):
    # lifting takes this instance's rounded total of 1/5 down to 0, below
    # the optimum over roundings of the reduced instance
    path = ROOT / "fixtures" / "gen_n2_m2_seed0.json"
    assert main(["oracle", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        "optimum subsidy 1/5\n"
        "pipeline subsidy 1/5\n"
        "gap 0\n"
        "lifted subsidy 0\n"
        "certificate bound 1/2\n"
    )


@pytest.fixture()
def broken_pair_bound(tmp_path, monkeypatch):
    """An instance file whose run breaks the pair bound, patched to 0."""
    monkeypatch.setattr(rounding, "TWO_THIRDS", Fraction(0))
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(gen_random_instance(6, 12, CHORES, 0)))
    return path


BROKEN_PAIR = [
    "pair on items (5, 6): 7/30 > 0",
    "tree at agent 5: component bounds sum to 1, tree bound is 5/3",
]


def test_allocate_writes_both_documents_on_a_broken_bound(
    broken_pair_bound, tmp_path, capsys
):
    out, cert = tmp_path / "alloc.json", tmp_path / "cert.json"
    code = main(
        [
            "allocate",
            "--input", str(broken_pair_bound),
            "--out", str(out),
            "--certificate", str(cert),
        ]
    )
    assert code == 1
    assert json.loads(out.read_text())["bound_holds"] is False
    cert_doc = json.loads(cert.read_text())
    assert cert_doc["holds"] is False
    assert cert_doc["failures"] == BROKEN_PAIR
    captured = capsys.readouterr()
    assert "VIOLATED" in captured.out
    assert captured.err.splitlines() == [f"violated: {f}" for f in BROKEN_PAIR]


def test_oracle_exits_1_on_a_broken_bound(broken_pair_bound, capsys):
    assert main(["oracle", "--input", str(broken_pair_bound)]) == 1
    captured = capsys.readouterr()
    assert "gap " in captured.out
    assert captured.err.splitlines() == [f"violated: {f}" for f in BROKEN_PAIR]


def test_oracle_exits_1_on_a_broken_bound_past_its_cap(broken_pair_bound, capsys):
    assert main(["oracle", "--input", str(broken_pair_bound), "--cap", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: ")
    assert err[1:] == [f"violated: {f}" for f in BROKEN_PAIR]


def _oracle_lines(text):
    """The oracle's output as ``{"gap": Fraction(...), ...}``."""
    return {
        label: Fraction(value)
        for label, value in (line.rsplit(" ", 1) for line in text.splitlines())
    }


def test_oracle_gap_is_never_negative(tmp_path, capsys):
    path = tmp_path / "instance.json"
    lifted_below_optimum = 0
    for seed in range(40):
        n = 2 + seed % 9
        m = n + 7 * seed % (21 - n)
        kind = ("chores", "goods")[seed % 2]
        gen = ["gen", "--agents", str(n), "--items", str(m), "--kind", kind]
        assert main([*gen, "--seed", str(seed), "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle", "--input", str(path)]) == 0
        out = _oracle_lines(capsys.readouterr().out)
        assert out["gap"] == out["pipeline subsidy"] - out["optimum subsidy"] >= 0
        assert out["lifted subsidy"] <= out["pipeline subsidy"]
        lifted_below_optimum += out["lifted subsidy"] < out["optimum subsidy"]
    # a gap taken from the lifted total would be negative on these
    assert lifted_below_optimum > 0


@pytest.mark.parametrize("cap", ["-5", "0"])
@pytest.mark.parametrize("agents", [1, 6])
def test_oracle_rejects_a_cap_below_one(agents, cap, tmp_path, capsys):
    # one agent has no fractional item to enumerate; six agents have some
    path = tmp_path / "instance.json"
    assert main(["gen", "--agents", str(agents), "--items", "8", "--out", str(path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--input", str(path), f"--cap={cap}"])
    assert exc.value.code == 2
    assert f"argument --cap: must be at least 1, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["allocate", "verify", "oracle"])
def test_negative_decimal_is_refused_while_parsing(command, istar_file, tmp_path, capsys):
    # the oracle's cap of 1 is exceeded on this instance, which would exit 3
    # if the command ran before the argument was refused
    allocation = tmp_path / "alloc.json"
    assert main(["allocate", "--input", str(istar_file), "--out", str(allocation)]) == 0
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    argv = {
        "allocate": ["--out", str(outputs / "out.json"),
                     "--certificate", str(outputs / "cert.json")],
        "verify": ["--allocation", str(allocation)],
        "oracle": ["--cap", "1"],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(istar_file), *argv, "--decimal", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --decimal: must be at least 0, got -1" in captured.err
    assert captured.out == ""
    assert list(outputs.iterdir()) == []


def test_decimal_at_the_digit_limit_writes_the_golden_case(tmp_path):
    # every rational this case writes or prints (zero subsidies, a bound of
    # 1/2) renders in 4,300 digits; every other byte is the golden one
    golden = ROOT / "fixtures" / "golden" / "cases" / "gen_n2_m2_seed0"
    out, cert, dot = tmp_path / "tree.json", tmp_path / "tree.cert.json", tmp_path / "tree.dot"
    assert main([
        "allocate", "--input", str(ROOT / "fixtures" / "gen_n2_m2_seed0.json"),
        "--out", str(out), "--certificate", str(cert), "--emit-graph", str(dot),
        "--decimal", "4300",
    ]) == 0
    assert cert.read_bytes() == (golden / "tree.cert.json").read_bytes()
    assert dot.read_bytes() == (golden / "tree.dot").read_bytes()
    expected = json.loads((golden / "tree.json").read_text(encoding="utf-8"))
    zero = "0." + "0" * 4300
    expected.update(subsidies_decimal=[zero, zero], total_subsidy_decimal=zero)
    assert out.read_text(encoding="utf-8") == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["allocate", "verify", "oracle"])
def test_decimal_above_the_digit_limit_is_refused_before_the_input_is_read(
    command, tmp_path, capsys
):
    missing = str(tmp_path / "missing.json")
    argv = {"allocate": [], "verify": ["--allocation", missing], "oracle": []}[command]
    assert main([command, "--input", missing, *argv, "--decimal", "4301"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --decimal must be at most 4300, got 4301\n"
    assert captured.out == ""


def test_no_digit_limit_refuses_no_decimal_count(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = main(["allocate", "--input", str(tmp_path / "missing.json"), "--decimal", "4301"])
    finally:
        sys.set_int_max_str_digits(limit)
    # the count passes, and the missing input is what is refused
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read ")


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
