import json
import os
import random
import subprocess
import sys

import pytest

from cobeq import cli
from cobeq import interp
from cobeq import matcat as mc
from cobeq import protocols
from cobeq import syntax as sx

from conftest import SEED

BASICS = os.path.join(os.path.dirname(__file__), "..", "corpus", "basics.ccc")


@pytest.fixture
def corpus(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def test_check_all_equal(corpus, capsys):
    path = corpus("good.ccc", """gens b1 b2 b3 b4;
check b1 . inv(b1) == id[p];
check sigma[p,p] . sigma[p,p] == id[p (x) p];
""")
    assert cli.main(["check", path]) == 0
    out = capsys.readouterr().out
    assert out.count("EQUAL") == 2


def test_check_unequal_exit_one(corpus, capsys):
    path = corpus("bad.ccc", "gens b1 b2;\ncheck b1 == b2;\n")
    assert cli.main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "UNEQUAL" in out and "first difference" in out


def test_check_parse_error_exit_two(corpus, capsys):
    path = corpus("broken.ccc", "gens b1;\ncheck b1 == ;\n")
    assert cli.main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "2:" in err


def test_check_type_error_exit_two(corpus, capsys):
    path = corpus("illtyped.ccc", "gens b1;\ncheck eps[p] . eta[p] == id[I];\n")
    assert cli.main(["check", path]) == 2


def test_normalize_identity(corpus, capsys):
    path = corpus("n.ccc", "gens b1;\nlet f = id[p (+) p];\n")
    assert cli.main(["normalize", path, "f"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["rows"] == ["p", "p"] and payload["cols"] == ["p", "p"]
    assert payload["entries"][0][0]["terms"][0]["cobordism"]["segments"][0]["label"] == "e"
    assert payload["entries"][0][1]["terms"] == []


def test_normalize_injection(corpus, capsys):
    path = corpus("n.ccc", "gens b1;\nlet f = iota1[p,p];\n")
    assert cli.main(["normalize", path, "f"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["entries"]) == 2 and len(payload["entries"][0]) == 1
    assert payload["entries"][0][0]["terms"] != []
    assert payload["entries"][1][0]["terms"] == []


def test_normalize_unknown_name(corpus, capsys):
    path = corpus("n.ccc", "gens b1;\nlet f = id[p];\n")
    assert cli.main(["normalize", path, "g"]) == 2


def test_normalize_deterministic(corpus, capsys):
    path = corpus("n.ccc", "gens b1 b2 b3 b4;\nlet f = (id[p^*] (x) (b1 . b2)!) . eta[p];\n")
    assert cli.main(["normalize", path, "f"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["normalize", path, "f"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_render_formats(corpus, tmp_path, capsys):
    path = corpus("r.ccc", "gens b1;\nlet f = eta[p] (+) zero[I, p^* (x) p];\n")
    for fmt, probe in (("svg", "<svg"), ("dot", "digraph"), ("json", '"schema"')):
        out_file = tmp_path / f"drawing.{fmt}"
        assert cli.main(["render", path, "f", "--format", fmt,
                         "-o", str(out_file)]) == 0
        capsys.readouterr()
        content = out_file.read_text(encoding="utf-8")
        assert probe in content


def test_render_deterministic_and_direction(corpus, tmp_path, capsys):
    path = corpus("r.ccc", "gens b1;\nlet f = eta[p];\n")
    a, b, c = (tmp_path / n for n in ("a.svg", "b.svg", "c.svg"))
    assert cli.main(["render", path, "f", "-o", str(a)]) == 0
    assert cli.main(["render", path, "f", "-o", str(b)]) == 0
    assert cli.main(["render", path, "f", "--direction", "bt", "-o", str(c)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_render_omits_neutral_label(corpus, tmp_path, capsys):
    path = corpus("r.ccc", "gens b1 b2;\nlet f = eta[p];\nlet g = b1 . b2;\n")
    out_f = tmp_path / "f.svg"
    assert cli.main(["render", path, "f", "-o", str(out_f)]) == 0
    capsys.readouterr()
    svg = out_f.read_text(encoding="utf-8")
    assert ">e</text>" not in svg
    out_g = tmp_path / "g.svg"
    assert cli.main(["render", path, "g", "-o", str(out_g)]) == 0
    capsys.readouterr()
    assert "b1·b2" in out_g.read_text(encoding="utf-8")


def test_protocol_all(capsys):
    assert cli.main(["protocol", "all"]) == 0
    out = capsys.readouterr().out
    for name in protocols.PROTOCOL_NAMES:
        assert f"{name}: EQUAL" in out


def test_protocol_with_oracle(capsys):
    assert cli.main(["protocol", "teleportation", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle agrees" in out


def test_protocol_oracle_parses_each_source_once(monkeypatch, capsys):
    parsed = []
    parse = sx.parse_document
    monkeypatch.setattr(sx, "parse_document", lambda text: parsed.append(text) or parse(text))
    assert cli.main(["protocol", "all", "--oracle"]) == 0
    assert capsys.readouterr().out.count("oracle agrees") == len(protocols.PROTOCOL_NAMES)
    assert parsed == [protocols.ccc_source(name) for name in protocols.PROTOCOL_NAMES]


def test_unexpected_errors_exit_three(corpus, monkeypatch, capsys):
    # Exit 1 means "refuted", so an error the front end does not name, such
    # as running out of memory or a failed internal check, exits 3 with one
    # error line and no traceback.
    path = corpus("good.ccc", "gens b1;\ncheck b1 . inv(b1) == id[p];\n")

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    faults = [(interp, "equal", out_of_memory),
              (interp, "_eval", lambda t, ctx: mc.identity(mc.UNIT))]
    for module, name, fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            assert cli.main(["check", path]) == 3
        captured = capsys.readouterr()
        assert "EQUAL" not in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
    assert line.startswith("error: AssertionError: the matrix of a ")


def test_protocol_unknown(capsys):
    assert cli.main(["protocol", "nosuch"]) == 2


def test_built_package_carries_the_protocol_sources(tmp_path):
    # Lay the package out as an install would, outside the checkout, and run
    # the bundled protocols from that tree alone.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lib = tmp_path / "lib"
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                    "egg_info", "-e", str(tmp_path), "build_py", "-d", str(lib)],
                   cwd=root, capture_output=True, check=True)
    for name in protocols.PROTOCOL_NAMES:
        shipped = (lib / "cobeq" / "corpus" / f"{name}.ccc").read_text(encoding="utf-8")
        assert shipped == protocols.ccc_source(name)
    run = subprocess.run([sys.executable, "-m", "cobeq", "protocol", "all"], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(lib)), capture_output=True,
                         text=True)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert [line.split(" (")[0] for line in run.stdout.splitlines()] == [
        f"{name}: EQUAL" for name in protocols.PROTOCOL_NAMES]


def test_missing_file(tmp_path, capsys):
    # A file that cannot be read or written gets one line naming the path and
    # the reason, not the bare errno or codec name.
    latin1 = tmp_path / "latin1.ccc"
    latin1.write_bytes("gens b1;\n# caf\xe9\ncheck b1 == b1;\n".encode("latin-1"))
    target = tmp_path / "no" / "x.json"
    cases = [
        (["check", "/nonexistent/x.ccc"], "/nonexistent/x.ccc: No such file or directory"),
        (["check", str(tmp_path)], f"{tmp_path}: Is a directory"),
        (["render", BASICS, "loop", "-o", str(target)], f"{target}: No such file or directory"),
        (["check", str(latin1)],
         f"{latin1}: 'utf-8' codec can't decode byte 0xe9 in position 14: invalid continuation byte"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_repository_corpus_in_sync():
    root = os.path.join(os.path.dirname(__file__), "..", "corpus")
    for name in protocols.PROTOCOL_NAMES:
        path = os.path.join(root, f"{name}.ccc")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == protocols.ccc_source(name), name


def test_repository_corpus_checks_clean(capsys):
    root = os.path.join(os.path.dirname(__file__), "..", "corpus")
    for name in sorted(os.listdir(root)):
        assert cli.main(["check", os.path.join(root, name)]) == 0, name
        capsys.readouterr()


def test_output_identical_across_processes(corpus):
    # canonical forms are independent of the interpreter's hash salting
    path = corpus("d.ccc", "gens b1 b2;\nlet f = ((id[p^*] (x) (b1 . b2)) . eta[p]) (+) zero[I, p^* (x) p];\n")

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "cobeq.cli", "normalize", path, "f"],
            capture_output=True, env=env, check=True).stdout

    assert run("1") == run("2")


def test_render_zero_object_matrix(corpus, tmp_path, capsys):
    path = corpus("z.ccc", "gens b1;\nlet f = zero[0, 0];\n")
    out = tmp_path / "z.svg"
    assert cli.main(["render", path, "f", "-o", str(out)]) == 0
    capsys.readouterr()
    assert "<svg" in out.read_text(encoding="utf-8")


def test_normalize_zero_component_entries(corpus, capsys):
    # a tensor with the zero constant has a component whose interpretation
    # is empty; its matrix-form cell serializes as null
    path = corpus("n0.ccc", "gens b1;\nlet f = zero[p (x) 0, p];\n")
    assert cli.main(["normalize", path, "f"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cols"] == ["p (x) 0"]
    assert payload["entries"] == [[None]]


def test_normalize_teleportation_diagonal(capsys):
    # the collapsed teleportation leg normalizes to a 4x1 column of
    # neutral wires
    path = os.path.join(os.path.dirname(__file__), "..", "corpus",
                        "teleportation.ccc")
    assert cli.main(["normalize", path, "lhs"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cols"] == ["p"]
    assert len(payload["rows"]) == 4 and len(payload["entries"]) == 4
    for row in payload["entries"]:
        (entry,) = row
        (member,) = entry["terms"]
        (segment,) = member["cobordism"]["segments"]
        assert segment["label"] == "e"


def test_inputs_5000_deep_get_a_verdict(corpus, tmp_path):
    # Nothing recurses on the depth of the input: at the default recursion
    # limit, each check gets a verdict and each command its output.
    rng = random.Random(SEED)
    gadgets = ["sigma[p,p]", "(b1 (x) inv(b2))", "(id[p] (x) b3)", "(inv(b4) (x) b1)",
               "(b2 (x) id[p])"]
    chain = [rng.choice(gadgets) for _ in range(5000)]
    factors = " (x) ".join(["p"] * 5000)
    labels = [rng.choice(["b1", "b2!", "inv(b3)", "b4"]) for _ in range(5000)]
    checks = {
        "parens": ("(" * 5000 + "b1" + ")" * 5000, "b1"),
        "regroup": (" . ".join(chain), " . (".join(chain) + ")" * 4999),
        "tensor": (f"id[{factors}]", f"id[{factors}] . id[{factors}]"),
        "dagger": ("b1" + "!" * 5000, "b1"),
    }
    deep = corpus("deep.ccc", "gens b1 b2 b3 b4;\nlet deep = "
                  + " . (".join(labels) + ")" * 4999 + ";\n")
    commands = {name: ["check", corpus(f"{name}.ccc", f"gens b1 b2 b3 b4;\n"
                                       f"check {left} == {right};\n")]
                for name, (left, right) in checks.items()}
    commands["normalize"] = ["normalize", deep, "deep"]
    commands["render"] = ["render", "--format", "json", "-o", str(tmp_path / "deep.json"),
                          deep, "deep"]
    procs = {name: subprocess.Popen([sys.executable, "-m", "cobeq", *args], text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for name, args in commands.items()}
    outputs = {}
    for name, proc in procs.items():
        outputs[name], err = proc.communicate(timeout=300)
        assert proc.returncode == 0 and err == "", (name, err[-300:])
    for name in checks:
        assert outputs[name].endswith(": EQUAL\n"), name
    assert json.loads(outputs["normalize"])["entries"][0][0]["terms"]
    assert json.loads((tmp_path / "deep.json").read_text())["entries"]


def test_check_depth_400_chains(capsys):
    # Both checks overflowed the recursion limit while terms were compared
    # field by field; interned terms compare by identity.
    path = os.path.join(os.path.dirname(__file__), "deep400.ccc")
    assert cli.main(["check", path]) == 1
    statuses = [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()
                if line.startswith(path)]
    assert statuses == ["EQUAL", "UNEQUAL"]


def test_check_under_python_optimize(tmp_path):
    # python -O strips assert statements; verdicts and output must not change.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    left, right = protocols.entanglement_swap_legs_perturbed()
    swap = tmp_path / "swap_perturbed.ccc"
    swap.write_text(f"gens b1 b2 b3 b4;\ncheck {sx.print_term(left)} == "
                    f"{sx.print_term(right)};\n", encoding="utf-8")
    for path, status in ((os.path.join(root, "corpus", "teleportation.ccc"), 0),
                         (str(swap), 1)):
        runs = [subprocess.run([sys.executable, *flags, "-m", "cobeq", "check", path],
                               capture_output=True, text=True)
                for flags in (["-O"], [])]
        assert [run.returncode for run in runs] == [status, status]
        assert runs[0].stdout == runs[1].stdout and "EQUAL" in runs[0].stdout
