import json

from conftest import FIXTURES
from kmc.cli import load_diagram, main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--json")
    assert code == 0, err
    return json.loads(out)


def test_load_diagram_sniffing(tmp_path):
    p = tmp_path / "knot.txt"
    p.write_text("O1+ U1+\n")
    assert load_diagram(p).n == 1
    p.write_text("X 1 2 1 2\n")
    assert load_diagram(p).n == 1
    # the first token after comment-only and blank lines decides the format
    p.write_text("# a Gauss code\n\n   # X 1 2 1 2\nO1+ U1+\n")
    assert load_diagram(p).n == 1
    p.write_text("#\n\n# O1+ U1+\nX 1 2 1 2 # one kinked crossing\n")
    assert load_diagram(p).n == 1


def test_bracket_text(capsys):
    code, out, _ = run(capsys, "bracket", str(FIXTURES / "trefoil.pd"))
    assert code == 0
    assert "span: 12" in out
    assert "1-complete: yes" in out


def test_bracket_json(capsys):
    data = run_json(capsys, "bracket", str(FIXTURES / "trefoil.pd"))
    assert data["schema"] == 1
    assert data["terms"] == {"7": 1, "3": -1, "-5": -1}
    assert data["span"] == 12
    assert data["bound"] == 12
    assert data["one_complete"] is True


def test_atom_json(capsys):
    data = run_json(capsys, "atom", str(FIXTURES / "virtual_trefoil.gauss"))
    assert data == {
        "schema": 1,
        "a": 1,
        "b": 2,
        "chi": 1,
        "orientable": False,
        "twice_genus": 1,
    }


def test_atom_text_half_genus(capsys):
    code, out, _ = run(capsys, "atom", str(FIXTURES / "virtual_trefoil.gauss"))
    assert code == 0
    assert "genus: 1/2" in out


def test_kh_table_layout(capsys):
    code, out, _ = run(capsys, "kh", str(FIXTURES / "trefoil.pd"), "--field", "q")
    assert code == 0
    assert "thickness: 2" in out
    assert "q-span: 8" in out
    # rows are q descending
    rows = [line for line in out.splitlines() if line.startswith("q=")]
    qs = [int(line.split()[0][2:]) for line in rows]
    assert qs == sorted(qs, reverse=True)


def test_kh_text_half_integer_thickness(capsys):
    code, out, _ = run(capsys, "kh", str(FIXTURES / "virtual_trefoil.gauss"))
    assert code == 0
    assert "thickness: 5/2" in out


def test_kh_json(capsys):
    data = run_json(capsys, "kh", str(FIXTURES / "trefoil.pd"), "--field", "q")
    assert data["field"] == "q"
    assert {(e["t"], e["q"]): e["dim"] for e in data["entries"]} == {
        (-3, -9): 1,
        (-2, -5): 1,
        (0, -3): 1,
        (0, -1): 1,
    }
    assert data["thickness"] == 2
    assert data["q_span"] == 8


def test_k1_json(capsys):
    data = run_json(capsys, "k1", str(FIXTURES / "virtual_trefoil.gauss"))
    assert data["size"] == 3
    assert data["b_histogram"] == {"0": 1, "1": 2}
    assert data["window"] == [0, 1]
    assert data["checks"]["within_window"] is True
    assert data["checks"]["parity_consistent"] is False


def test_certify_json(capsys):
    data = run_json(
        capsys, "certify", str(FIXTURES / "trefoil.pd"), "--fields", "q"
    )
    assert data["verdict"] == "MINIMAL"
    assert data["strict_1_complete"] is True
    assert data["fields"]["q"]["thickness"] == 2


def test_certify_table_13n3663(capsys):
    code, out, _ = run(
        capsys, "certify-table", str(FIXTURES / "13n3663_khq.json"), "--n", "13"
    )
    assert code == 0
    assert "verdict: MINIMAL" in out


def test_certify_json_roundtrips_as_table(capsys, tmp_path):
    data = run_json(
        capsys, "certify", str(FIXTURES / "trefoil.pd"), "--fields", "q"
    )
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "certify-table", str(path), "--n", "3", "--json")
    assert code == 0
    table_cert = json.loads(out)
    assert table_cert["fields"]["q"]["thickness"] == data["fields"]["q"]["thickness"]
    assert table_cert["fields"]["q"]["q_span"] == data["fields"]["q"]["q_span"]
    assert table_cert["verdict"] == "MINIMAL"


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "kh", "missing.pd")
    assert code == 1
    assert "missing.pd" in err


def test_parse_error_reports_line(capsys, tmp_path):
    p = tmp_path / "bad.pd"
    p.write_text("X 1 2 3\n")
    code, out, err = run(capsys, "bracket", str(p))
    assert code == 1
    assert "line 1" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "bracket")[0] == 2
    assert run(capsys, "unknown-command")[0] == 2


def test_each_command_takes_only_the_options_it_reads():
    from kmc.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    options = {
        name: sorted(o for a in p._actions for o in a.option_strings if o != "-h")
        for name, p in sub.choices.items()
    }
    assert options == {
        "bracket": ["--help", "--json", "--max-crossings"],
        "atom": ["--help", "--json"],
        "kh": ["--field", "--help", "--json", "--max-crossings"],
        "k1": ["--help", "--json", "--max-crossings"],
        "certify": ["--fields", "--help", "--json", "--max-crossings"],
        "certify-table": ["--chi", "--field", "--help", "--json", "--n"],
        "batch": ["--fields", "--help", "--max-crossings"],
    }


def test_options_a_command_does_not_read_are_usage_errors(capsys):
    table = str(FIXTURES / "13n3663_khq.json")
    for argv, unread in (
        (["batch", str(FIXTURES)], ["--json"]),
        (["atom", str(FIXTURES / "trefoil.pd")], ["--max-crossings", "3"]),
        (["certify-table", table, "--n", "13"], ["--max-crossings", "3"]),
    ):
        code, out, err = run(capsys, *argv, *unread)
        assert (code, out) == (2, ""), argv
        # the command's own usage, not the top level's list of commands
        assert err.startswith(f"usage: kmc {argv[0]} [-h]")
        assert err.endswith(f"kmc {argv[0]}: error: unrecognized arguments: {' '.join(unread)}\n")


def test_max_crossings_flag(capsys):
    code, _, err = run(
        capsys, "kh", str(FIXTURES / "trefoil.pd"), "--max-crossings", "2"
    )
    assert code == 1
    assert "limit" in err


def test_bracket_and_census_limits_refuse_before_any_pass(capsys, monkeypatch, no_cube_walk):
    six_two = str(FIXTURES / "6_2.pd")
    expected = "kmc: diagram has 6 crossings; census limit is 3\n"
    for command in ("bracket", "k1"):
        for mode in ((), ("--json",)):
            assert run(capsys, command, six_two, "--max-crossings", "3", *mode) == (
                1, "", expected
            )
    monkeypatch.setenv("KMC_MAX_CROSSINGS", "3")
    for command in ("bracket", "k1"):
        assert run(capsys, command, six_two) == (1, "", expected)


def test_batch(capsys, tmp_path):
    for name in ("trefoil.pd", "kinked_trefoil.pd", "virtual_trefoil.gauss"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert any("trefoil.pd: MINIMAL" in line for line in lines)
    assert any("kinked_trefoil.pd: INCONCLUSIVE" in line for line in lines)
    assert "total: 3 files, 2 MINIMAL, 1 INCONCLUSIVE, 0 errors" in lines[-1]


def test_batch_empty_dir(capsys, tmp_path):
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 0
    assert "total: 0 files" in out


def test_batch_with_malformed_file(capsys, tmp_path):
    (tmp_path / "good.pd").write_text((FIXTURES / "trefoil.pd").read_text())
    (tmp_path / "bad.pd").write_text("X 1 2 3\n")
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 1
    assert "error" in out


def test_json_output_deterministic(capsys):
    first = run(capsys, "certify", str(FIXTURES / "figure8.pd"), "--json")
    second = run(capsys, "certify", str(FIXTURES / "figure8.pd"), "--json")
    assert first == second


def test_nonpositive_limit_is_usage_error(capsys):
    code, _, err = run(
        capsys, "kh", str(FIXTURES / "trefoil.pd"), "--max-crossings", "0"
    )
    assert code == 2
    assert err.startswith("usage: kmc kh [-h]")
    assert err.endswith("kmc kh: error: --max-crossings must be positive\n")


def test_nonpositive_env_limit_is_an_error(capsys, monkeypatch):
    """A limit from the environment is refused as the flag's is, but as a
    bad value (exit 1, one line) since argparse never sees it."""
    trefoil = str(FIXTURES / "trefoil.pd")
    for value in ("0", "-3", "three"):
        monkeypatch.setenv("KMC_MAX_CROSSINGS", value)
        for command in ("bracket", "kh", "certify"):
            assert run(capsys, command, trefoil) == (
                1, "", f"kmc: bad KMC_MAX_CROSSINGS value {value!r}\n"
            )


def test_certify_table_needs_field_choice_for_multi_field_json(capsys, tmp_path):
    import json as _json

    code, out, _ = run(
        capsys, "certify", str(FIXTURES / "trefoil.pd"), "--fields", "gf2,q", "--json"
    )
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, _, err = run(capsys, "certify-table", str(path), "--n", "3")
    assert code == 1
    assert "pick one" in err
    code, out, _ = run(
        capsys, "certify-table", str(path), "--n", "3", "--field", "q"
    )
    assert code == 0
    assert "verdict: MINIMAL" in out


def test_certify_table_refuses_to_relabel_a_table(capsys, tmp_path):
    code, out, err = run(
        capsys, "certify-table", str(FIXTURES / "13n3663_khq.json"), "--n", "13",
        "--field", "gf2",
    )
    assert_one_line_error(code, err)
    assert "table is over q, not gf2" in err and out == ""
    code, out, _ = run(
        capsys, "certify", str(FIXTURES / "figure8.pd"), "--fields", "gf2", "--json"
    )
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, err = run(capsys, "certify-table", str(path), "--n", "4", "--field", "q")
    assert_one_line_error(code, err)
    assert "table is over gf2, not q" in err and out == ""
    code, out, _ = run(capsys, "certify-table", str(path), "--n", "4", "--field", "gf2")
    assert code == 0
    assert "table[gf2]" in out
    # a table in a fields map that does not name its field is over the key's
    entries = [{"t": 0, "q": 1, "dim": 1}, {"t": 0, "q": -1, "dim": 1}]
    path.write_text(json.dumps({"fields": {"gf2": {"entries": entries}}}))
    code, out, _ = run(capsys, "certify-table", str(path), "--n", "0")
    assert code == 0
    assert "table[gf2]" in out
    code, out, err = run(capsys, "certify-table", str(path), "--n", "0", "--field", "q")
    assert_one_line_error(code, err)
    assert "table is over gf2, not q" in err and out == ""


def test_empty_field_list_is_an_error(capsys, tmp_path):
    (tmp_path / "trefoil.pd").write_text((FIXTURES / "trefoil.pd").read_text())
    for argv in (
        ["certify", str(tmp_path / "trefoil.pd"), "--fields", ","],
        ["certify", str(tmp_path / "trefoil.pd"), "--fields", ""],
        ["batch", str(tmp_path), "--fields", ""],
    ):
        code, out, err = run(capsys, *argv)
        assert_one_line_error(code, err)
        assert "no field" in err and out == ""


def test_repeated_fields_print_once(capsys):
    trefoil = str(FIXTURES / "trefoil.pd")
    for repeated, once in (("gf2,gf2", "gf2"), ("q,gf2,q", "q,gf2")):
        for mode in ([], ["--json"]):
            got = run(capsys, "certify", trefoil, "--fields", repeated, *mode)
            assert got == run(capsys, "certify", trefoil, "--fields", once, *mode)
            assert got[0] == 0


def test_batch_field_error_counts_as_error(capsys, tmp_path):
    (tmp_path / "vt.gauss").write_text(
        (FIXTURES / "virtual_trefoil.gauss").read_text()
    )
    code, out, _ = run(capsys, "batch", str(tmp_path), "--fields", "q")
    assert code == 1
    assert "error" in out


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("kmc: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_non_utf8_diagram_is_input_error(capsys, tmp_path):
    p = tmp_path / "latin1.pd"
    p.write_bytes(b"\xff\xfe X 1 2 1 2\n")
    code, out, err = run(capsys, "bracket", str(p))
    assert_one_line_error(code, err)
    assert "not UTF-8" in err


def test_certify_table_missing_file(capsys, tmp_path):
    code, out, err = run(
        capsys, "certify-table", str(tmp_path / "missing.json"), "--n", "3"
    )
    assert_one_line_error(code, err)
    assert "missing.json" in err


def test_certify_table_non_utf8_file(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_bytes(b'\xff{"entries": []}')
    code, out, err = run(capsys, "certify-table", str(p), "--n", "3")
    assert_one_line_error(code, err)
    assert "not UTF-8" in err


def test_certify_table_invalid_json(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_text('{"entries": [\n')
    code, out, err = run(capsys, "certify-table", str(p), "--n", "3")
    assert_one_line_error(code, err)
    assert "not valid JSON" in err


def test_certify_table_deeply_nested_json(capsys, tmp_path):
    # json.load recurses once per level and would raise RecursionError
    p = tmp_path / "table.json"
    p.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "certify-table", str(p), "--n", "3")
    assert_one_line_error(code, err)
    assert "nested too deeply" in err and out == ""


def test_certify_table_q_span_above_its_bound(capsys, tmp_path):
    # two diagonals 10^12 + 1 apart: the thickness pins chi, and the
    # q-span then exceeds 2n + chi for three crossings
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"entries": [
        {"t": 0, "q": 0, "dim": 1}, {"t": 0, "q": 10**12 + 1, "dim": 1},
    ]}))
    code, out, err = run(capsys, "certify-table", str(p), "--n", "3")
    assert_one_line_error(code, err)
    assert out == "" and err == (
        "kmc: q-span 1000000000001 exceeds 2n + chi = -999999999991; the table"
        " cannot come from a diagram with 3 crossings and chi = -999999999997\n"
    )


def test_certify_table_rejects_non_integer_values(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_text(
        '{"field": "q", "entries": [{"t": 0.7, "q": 1.9, "dim": 1},'
        ' {"t": 0, "q": -1, "dim": 1.5}]}'
    )
    code, out, err = run(capsys, "certify-table", str(p), "--n", "0")
    assert_one_line_error(code, err)
    assert "0.7" in err and out == ""
    for value in (True, "3", 1.5):
        for key in ("t", "q", "dim"):
            entry = {"t": 0, "q": 1, "dim": 1, key: value}
            p.write_text(json.dumps({"field": "q", "entries": [entry, {"t": 0, "q": -1, "dim": 1}]}))
            code, out, err = run(capsys, "certify-table", str(p), "--n", "0")
            assert_one_line_error(code, err)
            assert "must be integers" in err and out == ""


def test_certify_table_json_of_the_wrong_shape(capsys, tmp_path):
    p = tmp_path / "table.json"
    for text in ("[1, 2]", '{"entries": 5}', '{"fields": {"q": 5}}'):
        p.write_text(text)
        code, out, err = run(capsys, "certify-table", str(p), "--n", "3")
        assert_one_line_error(code, err)


def test_batch_continues_after_non_utf8_file(capsys, tmp_path):
    (tmp_path / "a_bad.pd").write_bytes(b"\xff\xfe X 1 2 1 2\n")
    (tmp_path / "b_good.pd").write_text((FIXTURES / "trefoil.pd").read_text())
    code, out, err = run(capsys, "batch", str(tmp_path))
    assert code == 1
    lines = out.strip().splitlines()
    assert "a_bad.pd: error: cannot read" in lines[0]
    assert lines[1].endswith("b_good.pd: MINIMAL")
    assert "total: 2 files, 1 MINIMAL, 0 INCONCLUSIVE, 1 errors" in lines[-1]


def test_certify_table_rejects_an_unknown_field(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_text(
        json.dumps({"field": "zz", "entries": [{"t": 0, "q": 1, "dim": 1}, {"t": 0, "q": -1, "dim": 1}]})
    )
    code, out, err = run(capsys, "certify-table", str(p), "--n", "0")
    assert_one_line_error(code, err)
    assert "unknown table field 'zz'" in err and out == ""


def test_bracket_span_above_its_bound_is_a_one_line_error(capsys, monkeypatch):
    """``kmc bracket`` checks the span of the bracket it prints against
    4n + 2(chi - 2), as certify does: above it is an error, not "no"."""
    import kmc.cli as cli
    from kmc.laurent import Laurent

    real = cli.kauffman_bracket
    monkeypatch.setattr(
        cli, "kauffman_bracket", lambda d, **kwargs: real(d, **kwargs) + Laurent.term(1, 99)
    )
    for mode in ((), ("--json",)):
        code, out, err = run(capsys, "bracket", str(FIXTURES / "trefoil.pd"), *mode)
        assert_one_line_error(code, err)
        assert err == "kmc: bracket span 104 above 4n + 2(chi - 2) = 12\n" and out == ""


def test_broken_invariant_is_a_one_line_error(capsys, tmp_path, monkeypatch):
    import kmc.khovanov as kh

    real = kh.homology

    def one_more(*args):
        tab = real(*args)
        (key, dim), *_ = tab.entries.items()
        return kh.KhTable(tab.field, {**tab.entries, key: dim + 1})

    monkeypatch.setattr(kh, "homology", one_more)
    code, out, err = run(capsys, "certify", str(FIXTURES / "trefoil.pd"))
    assert_one_line_error(code, err)
    assert "Euler characteristic" in err and out == ""
    (tmp_path / "trefoil.pd").write_text((FIXTURES / "trefoil.pd").read_text())
    code, out, err = run(capsys, "batch", str(tmp_path))
    assert code == 1
    assert "trefoil.pd: error: graded Euler characteristic" in out
    assert "total: 1 files, 0 MINIMAL, 0 INCONCLUSIVE, 1 errors" in out


def test_failed_internal_check_is_a_one_line_error(capsys, monkeypatch):
    import kmc.khovanov as kh

    def fail(c):
        raise AssertionError("differential does not square to zero at (t=0, q=1)")

    # the one pass over the blocks checks builds over either field
    monkeypatch.setattr(kh, "_gf2_pass", fail)
    for argv in (["certify"], ["certify", "--fields", "gf2"], ["kh", "--field", "q"]):
        code, out, err = run(capsys, argv[0], str(FIXTURES / "trefoil.pd"), *argv[1:])
        assert_one_line_error(code, err)
        assert "square to zero" in err and out == ""


def test_out_of_memory_is_a_one_line_error(capsys, tmp_path, monkeypatch):
    import kmc.khovanov as kh

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(kh, "_skeleton", exhausted)
    for argv in (["certify"], ["kh"]):
        code, out, err = run(capsys, argv[0], str(FIXTURES / "trefoil.pd"), *argv[1:])
        assert_one_line_error(code, err)
        assert err == "kmc: out of memory\n" and out == ""
    (tmp_path / "trefoil.pd").write_text((FIXTURES / "trefoil.pd").read_text())
    code, out, err = run(capsys, "batch", str(tmp_path))
    assert code == 1
    assert "trefoil.pd: error: out of memory" in out
    assert "total: 1 files, 0 MINIMAL, 0 INCONCLUSIVE, 1 errors" in out


def test_one_parser_per_process(capsys, monkeypatch):
    """main builds its parser on the first call and reuses it; each call
    gives the stdout, stderr and exit code of a freshly built parser."""
    import kmc.cli as cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    calls = [
        (["bracket", str(FIXTURES / "trefoil.pd")], 0),
        (["bracket", str(FIXTURES / "trefoil.pd"), "--json"], 0),
        (["k1", str(FIXTURES / "6_2.pd"), "--max-crossings", "3"], 1),
        (["certify", str(FIXTURES / "virtual_trefoil.gauss"), "--fields", "gf2", "--json"], 0),
        (["atom"], 2),
        (["kh", str(FIXTURES / "trefoil.pd"), "--field", "q"], 0),
        (["kh", str(FIXTURES / "trefoil.pd"), "--max-crossings", "0"], 2),
        (["atom", str(FIXTURES / "virtual_trefoil.gauss"), "--json"], 0),
        (["certify-table", str(FIXTURES / "13n3663_khq.json"), "--n", "13"], 0),
        (["no-such-command"], 2),
        (["k1", str(FIXTURES / "trefoil.pd")], 0),
    ]
    cli._shared_parser.cache_clear()
    try:
        shared = [run(capsys, *argv) for argv, _ in calls]
        assert len(built) == 1
        assert [code for code, _, _ in shared] == [code for _, code in calls]
        for (argv, _), result in zip(calls, shared):
            cli._shared_parser.cache_clear()
            assert run(capsys, *argv) == result
        assert len(built) == 1 + len(calls)
    finally:
        cli._shared_parser.cache_clear()


def test_input_errors_exit_1_in_one_line(capsys, tmp_path):
    """Bad arguments, diagrams and tables that argparse cannot see: exit
    1, nothing on stdout, one ``kmc: `` line on stderr."""
    trefoil = str(FIXTURES / "trefoil.pd")
    loop = tmp_path / "loop.pd"
    loop.write_text("loop 1\n")
    good = [{"t": 0, "q": 1, "dim": 1}, {"t": 0, "q": -1, "dim": 1}]
    tables = {
        "fieldonly": ({"field": "q"}, "no homology table found"),
        "noentries": ({"entries": []}, "empty homology table"),
        "entrieless": ({"fields": {"q": {"thickness": 1}}}, "no 'entries' key in table data"),
        "duplicate": ({"field": "q", "entries": good + good[:1]}, "duplicate table entry"),
        "nodim": ({"field": "q", "entries": [{"t": 0, "q": 1}]}, "bad table entry"),
        "booldim": ({"field": "q", "entries": [{**good[0], "dim": True}]}, "must be integers"),
    }
    cases = [
        (["batch", trefoil], "is not a directory"),
        (["certify", trefoil, "--fields", "gf2,z"], "unknown field 'z'"),
        (["bracket", str(loop)], "'loop' takes no arguments"),
        (
            ["certify-table", str(FIXTURES / "13n3663_khq.json"), "--n", "-1"],
            "crossing count must be non-negative",
        ),
    ]
    for name, (data, message) in tables.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        cases.append((["certify-table", str(path), "--n", "3"], message))
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert_one_line_error(code, err)
        assert message in err and out == "", argv
