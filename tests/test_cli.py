"""End-to-end CLI runs through main()."""

import csv
import dataclasses
import functools
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tricover.pipeline as pl
from tricover import build_graph, cover, errors, oracles
from tricover.cli import main
from tricover.errors import SelfCheckError
from tricover.generators import complete_graph, gnp
from tricover.graph import write_edge_list

from test_oracles import LP_CORRUPTIONS, disjoint_triangles
from test_pipeline import JSON_VALUES, violating_start


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def k6_file(tmp_path):
    path = tmp_path / "k6.txt"
    write_edge_list(complete_graph(6), str(path))
    return str(path)


def test_gen_and_pack(tmp_path, capsys):
    out = tmp_path / "chain.txt"
    code, stdout, _ = run(capsys, "gen", "--family", "lend_chain", "--length", "2", "--out", str(out))
    assert code == 0 and "n=8" in stdout
    code, stdout, _ = run(capsys, "pack", str(out))
    assert code == 0 and "packing size 3" in stdout


def test_cover_writes_certificate_and_verify_accepts(tmp_path, capsys):
    graph = k6_file(tmp_path)
    cert = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "cover", graph, "--order", "2", "--out", str(cert))
    assert code == 0
    assert "sum_f" in stdout and "<= 8" in stdout
    code, stdout, _ = run(capsys, "verify", graph, str(cert))
    assert code == 0 and stdout.strip() == "OK"


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    graph = k6_file(tmp_path)
    cert = tmp_path / "cert.json"
    assert run(capsys, "cover", graph, "--order", "3", "--out", str(cert))[0] == 0
    obj = json.loads(cert.read_text())
    obj["weights"] = obj["weights"][2:]
    cert.write_text(json.dumps(obj))
    code, _, stderr = run(capsys, "verify", graph, str(cert))
    assert code == 2 and "FAIL" in stderr


def test_oracle_values(tmp_path, capsys):
    graph = k6_file(tmp_path)
    assert run(capsys, "oracle", graph, "--what", "nu")[1].strip() == "4"
    assert run(capsys, "oracle", graph, "--what", "tau")[1].strip() == "6"
    assert run(capsys, "oracle", graph, "--what", "taustar2")[1].strip() == "6"
    assert run(capsys, "oracle", graph, "--what", "taustar3")[1].strip() == "5"


@pytest.mark.parametrize("what", ["nu", "tau", "taustar2"])
def test_oracle_rejects_a_negative_cap(tmp_path, capsys, what):
    # a negative cap is a bad parameter, not a graph above the cap
    path = tmp_path / "c5.txt"
    write_edge_list(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), str(path))
    code, stdout, stderr = run(capsys, "oracle", str(path), "--what", what, "--cap", "-1")
    assert code == 4 and "cap must be >= 0, got -1" in stderr and stdout == ""


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--family", "gnp", "--n", "8", "--p", "0.5",
        "--trials", "3", "--order", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,seed,nu,nu_bound,packing,sum_f,order,ms"
    assert len(lines) == 4


def test_bench_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--family", "gnp", "--n", "7", "--p", "0.6", "--trials", "2", "--order", "3"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    strip_ms = lambda text: [",".join(r.split(",")[:-1]) for r in text.splitlines()]
    assert strip_ms(a.read_text()) == strip_ms(b.read_text())


def test_bench_leaves_nu_empty_above_the_oracle_cap(tmp_path, capsys):
    # K12 has 220 triangles, above the default cap of 200 of nu_exact
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--family", "complete", "--n", "12",
        "--trials", "1", "--order", "3", "--out", str(out),
    )
    assert code == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert (row["nu"], row["nu_bound"], row["packing"]) == ("", "20", "20")


def test_bench_bounds_a_long_chain_by_its_k4_blocks(tmp_path, capsys):
    # lend_chain(100) has 404 triangles, too many for nu_exact; its degree
    # bound is 134 and its K4-block bound 101, which its packing meets
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--family", "lend_chain", "--length", "100",
        "--trials", "1", "--order", "2", "--out", str(out),
    )
    assert code == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert (row["nu"], row["nu_bound"], row["packing"]) == ("", "101", "101")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_bench_rejects_non_positive_trials(tmp_path, capsys, trials):
    out = tmp_path / "bench.csv"
    code, stdout, stderr = run(
        capsys, "bench", "--family", "gnp", "--n", "6", "--p", "0.5",
        "--trials", trials, "--out", str(out),
    )
    assert code == 4 and "--trials" in stderr and stdout == ""
    assert not out.exists()


def test_self_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    import tricover.cli as cli

    def boom(*a, **k):
        raise SelfCheckError("stuck", focus_edges={0})

    monkeypatch.setattr(cli, "cover", boom)
    code, _, stderr = run(capsys, "cover", k6_file(tmp_path), "--order", "2")
    assert code == 3 and stderr == "self-check failed: stuck\n"


@pytest.mark.parametrize("corrupt", LP_CORRUPTIONS, ids=lambda f: f.__name__)
def test_lp_self_check_failure_exit_code(tmp_path, capsys, monkeypatch, corrupt):
    # tau*_2 of gnp(9, 0.7, 1110) needs the LP: whichever certificate check
    # a corrupted simplex result fails, the CLI exits 3 on one stderr line
    path = tmp_path / "g.txt"
    write_edge_list(gnp(9, 0.7, 1110), str(path))
    monkeypatch.setattr(oracles, "_simplex_min", functools.partial(corrupt, oracles._simplex_min))
    code, stdout, stderr = run(capsys, "oracle", str(path), "--what", "taustar2")
    assert code == 3 and stdout == ""
    assert stderr.startswith("self-check failed: LP ") and stderr.count("\n") == 1


def test_a_violating_start_exits_3(tmp_path, capsys, monkeypatch):
    # a violation in cover's own start packing is the library's fault
    g = violating_start(monkeypatch)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    code, stdout, stderr = run(capsys, "cover", str(path), "--order", "2")
    assert code == 3 and stdout == ""
    assert stderr.startswith("self-check failed: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("what", ["nu", "tau"])
def test_an_oracle_search_deeper_than_the_recursion_limit_exits_4(tmp_path, capsys, what):
    path = tmp_path / "disjoint.txt"
    write_edge_list(disjoint_triangles(1100), str(path))
    code, stdout, stderr = run(capsys, "oracle", str(path), "--what", what, "--cap", "2000")
    assert code == 4 and stdout == ""
    assert stderr.startswith("error: 1100 triangles under cap 2000") and stderr.count("\n") == 1


def test_error_classes():
    # one class for rejected input and one for the library's own faults;
    # a SelfCheckError is no ValueError, so the CLI never reports it as exit 4
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {"TricoverError", "InputError", "SelfCheckError", "InternalChargeError"}
    assert issubclass(errors.InputError, ValueError)
    assert issubclass(errors.InputError, errors.TricoverError)
    assert not issubclass(errors.SelfCheckError, ValueError)
    # and the library raises no plain ValueError
    package = Path(errors.__file__).parent
    assert [f.name for f in package.glob("*.py") if "raise ValueError" in f.read_text()] == []


def test_a_composed_cover_that_fails_verification_exits_3(tmp_path, capsys, monkeypatch):
    # order 5 is composed from the order-2 and order-3 covers; once
    # verify_cover rejects it, cover raises as at orders 2, 3 and 6, the CLI
    # writes no certificate, and bench prints no row
    real = pl.verify_cover

    def reject_order_5(g, f, packing_size):
        report = real(g, f, packing_size)
        return dataclasses.replace(report, covered=False) if f.order == 5 else report

    monkeypatch.setattr(pl, "verify_cover", reject_order_5)
    with pytest.raises(SelfCheckError, match="the order-5 engine's cover fails verification"):
        cover(complete_graph(6), 5)
    out = tmp_path / "c.json"
    code, stdout, stderr = run(capsys, "cover", k6_file(tmp_path), "--order", "5", "--out", str(out))
    assert code == 3 and stdout == "" and stderr.startswith("self-check failed: the order-5")
    assert not out.exists()
    code, stdout, stderr = run(capsys, "bench", "--family", "complete", "--n", "6", "--order", "5")
    assert code == 3 and stdout == "" and stderr.startswith("self-check failed: the order-5")


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "complete", "--n", "100001"],
        ["--family", "gnp", "--n", "1415", "--p", "0.5", "--seed", "1"],
        ["--family", "glued_k4", "--length", "1000000000"],
        ["--family", "lend_chain", "--length", "1000000000"],
    ],
    ids=["complete", "gnp", "glued_k4", "lend_chain"],
)
def test_gen_rejects_oversized_instance(tmp_path, capsys, args):
    out = tmp_path / "g.txt"
    code, _, stderr = run(capsys, "gen", *args, "--out", str(out))
    assert code == 4 and stderr.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--family", "glued_k4"],
        ["gen", "--family", "lend_chain"],
        ["gen", "--family", "glued_k4", "--length", "0"],
        ["gen", "--family", "lend_chain", "--length", "0"],
        ["gen", "--family", "complete"],
        ["gen", "--family", "complete", "--n", "0"],
        ["cover", "GRAPH", "--order", "1"],
        ["cover", "GRAPH"],
        ["oracle", "GRAPH", "--what", "tau", "--cap", "abc"],
        ["pack", "GRAPH", "--max-swap", "0"],
        ["cover", "GRAPH", "--order", "2", "--max-swap", "0"],
        ["bench", "--family", "complete", "--n", "6", "--trials", "0"],
    ],
    ids=[
        "glued_k4 no length", "lend_chain no length", "glued_k4 length 0",
        "lend_chain length 0", "complete no n", "complete n 0", "cover order 1",
        "cover no order", "oracle cap abc", "pack max_swap 0", "cover max_swap 0",
        "bench trials 0",
    ],
)
def test_bad_parameters_exit_code(tmp_path, capsys, args):
    # pack and oracle take no --out: they get none, so that argparse does
    # not reject the extra flag in place of the case's own fault
    out = tmp_path / "out.txt"
    args = [k6_file(tmp_path) if a == "GRAPH" else a for a in args]
    out_flag = [] if args[0] in ("pack", "oracle") else ["--out", str(out)]
    code, stdout, stderr = run(capsys, *args, *out_flag)
    # one error line last, argparse's "tricover <command>: error: ..." for a
    # usage error, and no traceback
    last = stderr.splitlines()[-1]
    assert code == 4 and re.fullmatch(r"(tricover \w+: )?error: .+", last) and stdout == ""
    assert not out.exists()


def test_gen_bowtie(tmp_path, capsys):
    out = tmp_path / "bowtie.txt"
    code, stdout, _ = run(capsys, "gen", "--family", "bowtie", "--out", str(out))
    assert code == 0 and "n=5 m=6" in stdout


def test_input_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, _, stderr = run(capsys, "pack", missing)
    assert code == 4 and "error" in stderr
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n")
    code, _, _ = run(capsys, "pack", str(bad))
    assert code == 4


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n0\n", "3 1\n0 1 2\n", "-1 0\n", "3 1\n0 x\n", "1 0\n2 0\n", "1000000000 0\n",
        "", "3 2\n0 1\n",
    ],
)
def test_malformed_edge_list_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, _, stderr = run(capsys, "pack", str(bad))
    assert code == 4 and stderr.startswith("error:")


def _drop(key):
    return lambda obj: obj.pop(key)


def _put(path, value):
    """Set obj[path[0]][path[1]]... to value."""

    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return edit


def _packing_only(obj):
    obj.clear()
    obj["packing"] = []


def _float_weights(obj):
    for w in obj["weights"]:
        w[2] = float(w[2])


def _repeat_triangle(obj):
    obj["packing"].append(obj["packing"][0][::-1])


def _repeat_edge(obj):
    u, v, _ = obj["weights"][0]
    obj["weights"].append([v, u, 0])


MALFORMED_CERTIFICATES = {
    "no order": _drop("order"),
    "no packing": _drop("packing"),
    "no weights": _drop("weights"),
    "no digest": _drop("graph_sha256"),
    "packing only": _packing_only,
    "order 0": _put(["order"], 0),
    "order 1": _put(["order"], 1),
    "order string": _put(["order"], "2"),
    "order float": _put(["order"], 2.0),
    "order bool": _put(["order"], True),
    "float weights": _float_weights,
    "bool weight": _put(["weights", 0, 2], True),
    "float vertex": _put(["packing", 0, 0], 0.0),
    "short packing row": _put(["packing", 0], [0, 1]),
    "weights not a list": _put(["weights"], {}),
    "edge weighted twice": _repeat_edge,
    "triangle packed twice": _repeat_triangle,
    "zero denominator": _put(["verdict", "total_denominator"], 0),
    "string numerator": _put(["verdict", "total_numerator"], "6"),
    "verdict not an object": _put(["verdict"], []),
}


@pytest.mark.parametrize("edit", MALFORMED_CERTIFICATES.values(), ids=MALFORMED_CERTIFICATES)
def test_verify_rejects_malformed_certificate(tmp_path, capsys, edit):
    graph = k6_file(tmp_path)
    cert = tmp_path / "cert.json"
    assert run(capsys, "cover", graph, "--order", "2", "--out", str(cert))[0] == 0
    obj = json.loads(cert.read_text())
    edit(obj)
    cert.write_text(json.dumps(obj))
    code, _, stderr = run(capsys, "verify", graph, str(cert))
    assert code == 2 and stderr.startswith("FAIL: ")


def test_verify_rejects_non_object_certificate(tmp_path, capsys):
    graph = k6_file(tmp_path)
    cert = tmp_path / "cert.json"
    cert.write_text("[]")
    code, _, stderr = run(capsys, "verify", graph, str(cert))
    assert code == 2 and "not a JSON object" in stderr


def test_verify_rejects_too_deeply_nested_json(tmp_path, capsys):
    # the JSON decoder recurses once per bracket; input error, not a traceback
    graph = k6_file(tmp_path)
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 200000)
    code, stdout, stderr = run(capsys, "verify", graph, str(cert))
    assert code == 4 and stderr.startswith("error:") and stdout == ""


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=st.binary(max_size=64) | JSON_VALUES.map(lambda v: json.dumps(v).encode()))
def test_verify_on_random_bytes_exits_2_or_4(tmp_path, capsys, raw):
    # bytes that are not UTF-8 JSON are an input error, JSON that is not
    # a certificate fails verification; neither may end in a traceback
    graph = k6_file(tmp_path)
    cert = tmp_path / "raw.json"
    cert.write_bytes(raw)
    code, stdout, stderr = run(capsys, "verify", graph, str(cert))
    assert (code, stdout) in ((2, ""), (4, ""))
    assert stderr.startswith("FAIL: " if code == 2 else "error:")
