from __future__ import annotations

import json
import shutil

from olog import core, system
from olog.cli import main

from .conftest import FIXTURES, write_overflowing_node, write_overflowing_system


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "employee.olog")
    assert code == 0
    assert "2 facts" in out


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.olog"
    bad.write_text("olog X {\n  fact a = b\n}\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert "unknown aspect" in err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "entail")[0] == 2
    assert run(capsys, "check", FIXTURES / "does_not_exist.olog")[0] == 2


def test_entail_verdicts(capsys):
    code, out, _ = run(
        capsys, "entail", FIXTURES / "family.olog", "--fact", "parents;w = mother"
    )
    assert code == 0 and "entailed" in out

    code, out, _ = run(
        capsys, "--bound", "3", "entail", FIXTURES / "employee.olog",
        "--fact", "manager;manager;works_in = works_in",
    )
    assert code == 0 and "entailed" in out

    code, out, _ = run(
        capsys, "entail", FIXTURES / "factorial.olog",
        "--fact", "s;m = s;q", "--require-entailed",
    )
    assert code == 1 and "not-derivable-within-bound" in out


def test_entail_asks_to_raise_the_bound_for_a_long_fact(capsys):
    code, out, err = run(
        capsys, "--bound", "2", "entail", FIXTURES / "employee.olog",
        "--fact", "manager;manager;works_in = works_in",
    )
    assert (code, out) == (2, "")
    assert err == (
        "fact 'manager;manager;works_in = works_in' has a side longer than bound 2; "
        "raise --bound\n"
    )


def test_validate_employee_satisfied(capsys):
    code, out, _ = run(
        capsys, "validate", FIXTURES / "employee.olog", "--data",
        FIXTURES / "data_employee",
    )
    assert code == 0
    assert out.count(": satisfied") == 2


def test_validate_mutated_family_fails_with_counterexample(capsys):
    code, out, _ = run(
        capsys, "validate", FIXTURES / "family.olog", "--data",
        FIXTURES / "data_family_mutated",
    )
    assert code == 1
    assert "violated" in out and "Steve" in out


def test_validate_metric_runs_sketch_checks(capsys):
    code, out, _ = run(
        capsys, "validate", FIXTURES / "metric.olog", "--data", FIXTURES / "data_metric"
    )
    assert code == 0
    assert "pullback triple: check-passed" in out
    assert "singleton unit: check-passed" in out
    assert "injective" not in out  # no modifiers declared in the metric olog


def test_validate_duck_checks_modifier_free_coproduct(capsys):
    code, out, _ = run(
        capsys, "validate", FIXTURES / "duck.olog", "--data", FIXTURES / "data_duck"
    )
    assert code == 0
    assert "coproduct creature: check-passed" in out


def test_validate_reports_a_failing_sketch_check_in_text_and_json(tmp_path, capsys):
    # A creature that is neither a tagged flyer nor a tagged swimmer.
    shutil.copytree(FIXTURES / "data_duck", tmp_path / "data")
    with open(tmp_path / "data" / "creature.csv", "a") as f:
        f.write("ghost\n")
    argv = ["validate", FIXTURES / "duck.olog", "--data", tmp_path / "data"]
    witness = "target key 'ghost' is not included from any summand"
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == f"coproduct creature: check-failed ({witness})\n"
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == [
        {"kind": "coproduct", "subject": "creature", "status": "check-failed", "witness": witness}
    ]


def test_validate_load_error_exit_code(tmp_path, capsys):
    for f in (FIXTURES / "data_employee").iterdir():
        shutil.copy(f, tmp_path / f.name)
    text = (tmp_path / "employee.csv").read_text().replace("q10", "zz9")
    (tmp_path / "employee.csv").write_text(text)
    code, out, _ = run(
        capsys, "validate", FIXTURES / "employee.olog", "--data", tmp_path
    )
    assert code == 1
    assert "dangling key" in out


def test_json_format_agrees_with_text(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "validate", FIXTURES / "family.olog",
        "--data", FIXTURES / "data_family",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"fact": "parents;w = mother", "kind": "fact", "status": "satisfied"}
    ]
    code2, out2, _ = run(
        capsys, "validate", FIXTURES / "family.olog", "--data", FIXTURES / "data_family"
    )
    assert code2 == 0 and "satisfied" in out2


def test_sqlgen_writes_file(tmp_path, capsys):
    out_file = tmp_path / "schema.sql"
    code, _, _ = run(
        capsys, "sqlgen", FIXTURES / "employee.olog", "-o", out_file, "--quiet"
    )
    assert code == 0
    assert out_file.read_text() == (FIXTURES / "golden" / "employee.sql").read_text()


def test_output_file_directory_is_created(tmp_path, capsys):
    sql = tmp_path / "nodir" / "x.sql"
    code, out, err = run(capsys, "sqlgen", FIXTURES / "employee.olog", "-o", sql)
    assert (code, out, err) == (0, f"wrote {sql}\n", "")
    assert sql.read_text() == (FIXTURES / "golden" / "employee.sql").read_text()
    fused = tmp_path / "a" / "b" / "fused.olog"
    code, _, err = run(capsys, "fuse", FIXTURES / "span.osys", "-o", fused)
    assert (code, err) == (0, "")
    assert fused.read_text().startswith("olog ")


def test_sqlgen_with_inserts(capsys):
    code, out, _ = run(
        capsys, "sqlgen", FIXTURES / "employee.olog",
        "--with-inserts", FIXTURES / "data_employee",
    )
    assert code == 0
    assert 'INSERT INTO "employee"' in out


def test_sqlgen_refuses_ids_that_differ_only_in_case(tmp_path, capsys):
    olog = tmp_path / "folded.olog"
    olog.write_text('olog Folded {\n  type person "a person"\n'
                    '  aspect ID : person -> person "has as twin"\n}\n')
    code, out, err = run(capsys, "sqlgen", olog)
    assert (code, out) == (2, "")
    assert err == ("type 'person': columns 'Id' and 'ID' differ only in case; "
                   "SQLite takes them for one name\n")


def test_synth_builds_missing_target(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    # only the participant key sets; the target table and the inclusion
    # columns are synthesis outputs
    (data / "flyer.csv").write_text("Id\nduck\neagle\n")
    (data / "swimmer.csv").write_text("Id\nduck\n")
    code, out, _ = run(
        capsys, "synth", FIXTURES / "duck.olog", "--data", data, "--decl", "creature"
    )
    assert code == 0
    assert "# table: creature" in out
    assert "inas_flyer:duck" in out and "inas_swimmer:duck" in out
    assert "duck,inas_flyer:duck" in out  # generated inclusion column

    out_dir = tmp_path / "generated"
    code, _, _ = run(
        capsys, "synth", FIXTURES / "duck.olog", "--data", data,
        "--decl", "creature", "-o", out_dir, "--quiet",
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "creature.csv", "flyer.csv", "swimmer.csv",
    ]
    assert "inas_swimmer:duck" in (out_dir / "creature.csv").read_text()


def test_synth_writes_tables_that_validate_reads_back(tmp_path, capsys):
    olog = tmp_path / "p.olog"
    olog.write_text(
        'olog P {\n  type a "an a"\n  type b "a b"\n  type p "a pair"\n'
        '  aspect pa : p -> a "has"\n  aspect pb : p -> b "has"\n'
        "  product p = a * b via (pa,pb)\n}\n"
    )
    data = tmp_path / "data"
    data.mkdir()
    (data / "a.csv").write_bytes(b'Id\n"x\ry"\n')
    (data / "b.csv").write_bytes(b"Id\nz\n")
    code, _, _ = run(capsys, "synth", olog, "--data", data, "--decl", "p", "-o", data)
    assert code == 0
    code, out, _ = run(capsys, "validate", olog, "--data", data)
    assert code == 0, out


def test_synth_refuses_populated_target(capsys):
    code, _, err = run(
        capsys, "synth", FIXTURES / "duck.olog",
        "--data", FIXTURES / "data_duck", "--decl", "creature",
    )
    assert code == 1 and "already populated" in err


def test_synth_refuses_target_with_ungenerated_aspects(tmp_path, capsys):
    # triple = pair *_point pair generates d2 and d0, but triple also has d1
    # and f, which no pullback can fill in.
    data = tmp_path / "data"
    shutil.copytree(FIXTURES / "data_metric", data)
    (data / "triple.csv").unlink()
    out_dir = tmp_path / "generated"
    for extra in ((), ("-o", out_dir)):
        code, out, err = run(
            capsys, "synth", FIXTURES / "metric.olog", "--data", data, "--decl", "triple", *extra
        )
        assert code == 1 and out == ""
        assert err == (
            "cannot synthesize 'triple': aspects not generated by the declaration: d1, f\n"
        )
    assert not out_dir.exists()


def test_synth_unknown_decl(capsys):
    code, _, err = run(
        capsys, "synth", FIXTURES / "duck.olog",
        "--data", FIXTURES / "data_duck", "--decl", "flyer",
    )
    assert code == 2 and "no sketch declaration" in err


def test_flow_dir_and_inv(tmp_path, capsys):
    code, out, _ = run(
        capsys, "flow", "dir",
        "--morphism", FIXTURES / "community_to_portal.omap",
        "--source", FIXTURES / "community.olog",
        "--target", FIXTURES / "portal.olog",
    )
    assert code == 0
    assert "olog Portal_dir {" in out and "fact" not in out.split("{")[1].split("}")[0]

    code, out, _ = run(
        capsys, "--bound", "2", "flow", "inv",
        "--morphism", FIXTURES / "community_to_portal.omap",
        "--source", FIXTURES / "community.olog",
        "--target", FIXTURES / "portal.olog",
    )
    assert code == 0
    assert "fact going;is_go = proc" in out


def test_morphism_check_cli(capsys):
    code, out, _ = run(
        capsys, "morphism", "check",
        "--morphism", FIXTURES / "community_to_portal.omap",
        "--source", FIXTURES / "community.olog",
        "--target", FIXTURES / "portal.olog",
    )
    assert code == 0 and "check-passed" in out


def test_morphism_check_failure(tmp_path, capsys):
    # left declares a fact that fact-free right does not entail
    (tmp_path / "l2r.omap").write_text(
        "type end1 => end2\ntype mid1 => mid2\ntype start1 => start2\n"
        "aspect u1 => u2\naspect v1 => v2\naspect w1 => w2\n"
    )
    code, out, _ = run(
        capsys, "morphism", "check",
        "--morphism", tmp_path / "l2r.omap",
        "--source", FIXTURES / "left.olog",
        "--target", FIXTURES / "right.olog",
    )
    assert code == 1 and "check-failed" in out and "u1;v1 = w1" in out


def test_fuse_and_consequence(tmp_path, capsys):
    out_file = tmp_path / "fused.olog"
    code, _, _ = run(capsys, "fuse", FIXTURES / "span.osys", "-o", out_file, "--quiet")
    assert code == 0
    assert "fact ground__u0;ground__v0 = ground__w0" in out_file.read_text()

    out_dir = tmp_path / "nodes"
    code, _, _ = run(
        capsys, "--bound", "4", "consequence", FIXTURES / "span.osys",
        "--out-dir", out_dir, "--quiet",
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["ground.olog", "left.olog", "right.olog"]
    assert "fact u2;v2 = w2" in (out_dir / "right.olog").read_text()


def test_lot_moves_cli(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lot", "contract", FIXTURES / "employee.olog",
        "--fact", "manager;works_in = works_in",
    )
    assert code == 0
    assert "fact manager;works_in = works_in" not in out
    assert "fact secretary;works_in = id(department)" in out

    code, out, _ = run(
        capsys, "lot", "expand", FIXTURES / "employee.olog",
        "--fact", "manager;manager;works_in = works_in",
    )
    assert code == 0
    assert "fact manager;manager;works_in = works_in" in out

    code, out, _ = run(
        capsys, "lot", "revise", FIXTURES / "employee.olog",
        "--delete", "manager;works_in = works_in",
        "--add", "manager;manager = manager",
    )
    assert code == 0
    assert "fact manager;manager = manager" in out

    code, out, _ = run(
        capsys, "lot", "analogy", FIXTURES / "community.olog",
        "--morphism", FIXTURES / "community_to_portal.omap",
        "--target", FIXTURES / "portal.olog",
    )
    assert code == 0
    assert "olog Portal {" in out

    code, _, err = run(
        capsys, "lot", "contract", FIXTURES / "employee.olog",
        "--fact", "manager;manager = manager",
    )
    assert code == 2 and "cannot contract" in err


def test_entail_json_report_fields(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "entail", FIXTURES / "family.olog",
        "--fact", "parents;w = mother",
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record == {
        "bound": 6,
        "fact": "parents;w = mother",
        "kind": "entailment",
        "status": "entailed",
        "witness": "mother",
    }


def test_quiet_hides_parse_warnings(tmp_path, capsys):
    lint = tmp_path / "lint.olog"
    lint.write_text('olog Lint {\n  type t "thing"\n}\n')
    for quiet in (False, True, False):
        argv = ["check", lint] + (["--quiet"] if quiet else [])
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert ("style lint label-article" in err) is not quiet


def test_consequence_validates_and_builds_the_channel_once(tmp_path, capsys, monkeypatch):
    calls = {"_unpreserved": 0, "optimal_channel": 0}

    def counting(name):
        real = getattr(system, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(system, name, wrapper)

    counting("_unpreserved")
    counting("optimal_channel")
    code, _, _ = run(capsys, "consequence", FIXTURES / "w.osys", "--out-dir", tmp_path)
    assert code == 0
    assert calls == {"_unpreserved": 4, "optimal_channel": 1}


def test_check_reports_parse_diagnostics_only(capsys, monkeypatch):
    # The parser already ran every structural check on what it accepts.
    def refuse(spec):
        raise AssertionError("structural checks re-run")

    monkeypatch.setattr(core, "validate_decls", refuse)
    monkeypatch.setattr(core, "validate_specification", refuse)
    code, out, _ = run(capsys, "check", FIXTURES / "metric.olog")
    assert code == 0 and out.startswith("ok: ")


def test_bound_below_one_is_a_usage_error(tmp_path, capsys):
    where = [
        "--morphism", FIXTURES / "community_to_portal.omap",
        "--source", FIXTURES / "community.olog", "--target", FIXTURES / "portal.olog",
    ]
    commands = [
        ["entail", FIXTURES / "family.olog", "--fact", "parents;w = mother"],
        ["fuse", FIXTURES / "span.osys"],
        ["consequence", FIXTURES / "span.osys", "--out-dir", tmp_path],
        ["flow", "inv", *where],
        ["morphism", "check", *where],
    ]
    for argv in commands:
        for placed in (["--bound", "0", *argv], [*argv, "--bound", "0"]):
            code, out, err = run(capsys, *placed)
            assert code == 2
            assert out == ""
            assert err.startswith("usage: olog")
            assert "argument --bound: bound must be a positive integer, got 0" in err
    code, _, err = run(capsys, "entail", FIXTURES / "family.olog", "--fact", "w = w",
                       "--bound", "two")
    assert code == 2 and "argument --bound: invalid int value: 'two'" in err


def test_undecodable_files_are_read_errors(tmp_path, capsys):
    for name in ("community.olog", "portal.olog", "community_to_portal.omap"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    garbage = b"\xff\xfe not utf-8\n"
    (tmp_path / "bad.olog").write_bytes(b'olog X {\n  type t "a \xe9t\xe9"\n}\n')
    (tmp_path / "bad.omap").write_bytes(garbage)
    (tmp_path / "bad.osys").write_bytes(garbage)
    (tmp_path / "bad_node.osys").write_text("node n = bad.olog\n")
    (tmp_path / "bad_edge.osys").write_text(
        "node c = community.olog\nnode p = portal.olog\nedge e : c -> p = bad.omap\n"
    )
    where = ["--source", tmp_path / "community.olog", "--target", tmp_path / "portal.olog"]
    cases = [
        (["check", tmp_path / "bad.olog"], f"cannot read '{tmp_path / 'bad.olog'}'"),
        (["flow", "dir", "--morphism", tmp_path / "bad.omap", *where],
         f"cannot read '{tmp_path / 'bad.omap'}'"),
        (["fuse", tmp_path / "bad.osys"], "cannot read system file"),
        (["fuse", tmp_path / "bad_node.osys"], "node 'n': cannot read 'bad.olog'"),
        (["fuse", tmp_path / "bad_edge.osys"], "edge 'e': cannot read 'bad.omap'"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert message in err and "can't decode byte" in err
        assert "Traceback" not in err


def test_a_nul_in_a_file_name_is_a_read_error(tmp_path, capsys):
    # open() raises ValueError, not OSError, for a name with a NUL byte.
    for name in ("community.olog", "portal.olog"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    (tmp_path / "node.osys").write_text("node n = \0a.olog\n")
    (tmp_path / "edge.osys").write_text(
        "node c = community.olog\nnode p = portal.olog\nedge e : c -> p = \0a.omap\n"
    )
    where = ["--source", tmp_path / "community.olog", "--target", tmp_path / "portal.olog"]
    cases = [
        (["check", "\0a.olog"], "cannot read '\0a.olog'"),
        (["flow", "dir", "--morphism", "\0a.omap", *where], "cannot read '\0a.omap'"),
        (["fuse", "\0a.osys"], "cannot read system file"),
        (["fuse", tmp_path / "node.osys"], "node 'n': cannot read '\0a.olog'"),
        (["fuse", tmp_path / "edge.osys"], "edge 'e': cannot read '\0a.omap'"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"{message}: embedded null byte" in err
    code, out, err = run(capsys, "validate", FIXTURES / "family.olog", "--data", "\0data")
    assert code == 1 and out.startswith("load error: missing table")


def test_undecodable_table_is_a_load_error(tmp_path, capsys):
    for f in (FIXTURES / "data_family").iterdir():
        shutil.copy(f, tmp_path / f.name)
    (tmp_path / "woman.csv").write_bytes(b"Id\n\xff\n")
    code, out, err = run(capsys, "validate", FIXTURES / "family.olog", "--data", tmp_path)
    assert code == 1
    assert out.startswith("load error: cannot read table 'woman.csv': 'utf-8' codec")
    assert err == ""


def test_synth_and_sqlgen_report_a_bad_table_as_a_load_error(tmp_path, capsys):
    # The synthesis target is removed, and one other table cannot be decoded.
    for data, bad in (("data_duck", "flyer"), ("data_employee", "department")):
        shutil.copytree(FIXTURES / data, tmp_path / data)
        (tmp_path / data / f"{bad}.csv").write_bytes(b"Id\n\xff\n")
    (tmp_path / "data_duck" / "creature.csv").unlink()
    for argv in (
        ["synth", FIXTURES / "duck.olog", "--data", tmp_path / "data_duck", "--decl", "creature"],
        ["sqlgen", FIXTURES / "employee.olog", "--with-inserts", tmp_path / "data_employee"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("load error: cannot read table '"), err
        assert "'utf-8' codec" in err


def test_an_oversized_cell_is_a_load_error(tmp_path, capsys):
    # csv refuses a field over 131,072 characters; the limit stays as it is.
    for f in (FIXTURES / "data_family").iterdir():
        shutil.copy(f, tmp_path / f.name)
    person = tmp_path / "person.csv"
    header, first, *rest = person.read_text(encoding="utf-8").splitlines(keepends=True)
    person.write_text(header + "x" * 200_000 + first[first.index(","):] + "".join(rest))
    code, out, err = run(capsys, "validate", FIXTURES / "family.olog", "--data", tmp_path)
    assert code == 1
    assert out.startswith("load error: cannot read table 'person.csv': field larger than")
    assert "Traceback" not in out + err


def test_fuse_reports_an_overflowing_edge_at_the_system_file(tmp_path, capsys):
    osys = write_overflowing_system(tmp_path)
    code, out, err = run(capsys, "--bound", "4", "fuse", osys)
    assert code == 2 and out == ""
    assert err == (
        f"{osys}:1:1 - error: edge 'e': translated fact 'g;h;g;h;g;h = g;h' "
        "has a side longer than bound 4\n"
    )


def test_fuse_and_consequence_report_an_overflowing_node(tmp_path, capsys):
    overflow = "declared fact 'f;f;f = f' has a side longer than bound 2"
    alone, pair = write_overflowing_node(tmp_path)
    for osys, nodes in ((alone, "a"), (pair, "ab")):
        want = "".join(f"{osys}:1:1 - error: node '{n}': {overflow}\n" for n in nodes)
        for cmd in (["fuse", osys], ["consequence", osys, "--out-dir", tmp_path / "out"]):
            code, out, err = run(capsys, "--bound", "2", *cmd)
            assert (code, out, err) == (2, "", want)
    assert not (tmp_path / "out").exists()
