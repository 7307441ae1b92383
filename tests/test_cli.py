"""End-to-end CLI runs through main()."""

import json

import pytest

from tricover.cli import main
from tricover.generators import complete_graph
from tricover.graph import write_edge_list


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


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--family", "gnp", "--n", "8", "--p", "0.5",
        "--trials", "3", "--order", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,seed,nu,nu_bound,packing,sum_f,order,repairs,ms"
    assert len(lines) == 4


def test_bench_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--family", "gnp", "--n", "7", "--p", "0.6", "--trials", "2", "--order", "3"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    strip_ms = lambda text: [",".join(r.split(",")[:-1]) for r in text.splitlines()]
    assert strip_ms(a.read_text()) == strip_ms(b.read_text())


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_bench_rejects_non_positive_trials(tmp_path, capsys, trials):
    out = tmp_path / "bench.csv"
    code, stdout, stderr = run(
        capsys, "bench", "--family", "gnp", "--n", "6", "--p", "0.5",
        "--trials", trials, "--out", str(out),
    )
    assert code == 4 and "--trials" in stderr and stdout == ""
    assert not out.exists()


def test_repair_exhausted_exit_code(tmp_path, capsys, monkeypatch):
    import tricover.cli as cli
    from tricover.errors import RepairExhaustedError

    def boom(*a, **k):
        raise RepairExhaustedError("stuck", focus_edges={0})

    monkeypatch.setattr(cli, "cover", boom)
    code, _, stderr = run(capsys, "cover", k6_file(tmp_path), "--order", "2")
    assert code == 3 and "repair exhausted" in stderr


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
    ["2 1\n0\n", "3 1\n0 1 2\n", "-1 0\n", "3 1\n0 x\n", "1 0\n2 0\n", "1000000000 0\n"],
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
