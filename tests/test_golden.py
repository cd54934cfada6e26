"""Golden output: the full text that ``cobeq check``, ``normalize`` and
``render`` print for a fixed set of inputs.

The expected text lives in ``tests/golden/``; ``cobeq protocol``'s timings
are masked.  Refactors of the value layer
must leave it byte-identical.  To regenerate after an intended change of
output, run ``python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from cobeq import cli
from cobeq import protocols
from cobeq import syntax as sx

GOLDEN = Path(__file__).parent / "golden"
BASICS = Path(__file__).parent.parent / "corpus" / "basics.ccc"
BIPRODUCTS = Path(__file__).parent / "biproducts.ccc"
SUPERDENSE = Path(protocols.__file__).parent / "corpus" / "superdense.ccc"

CONTROLS = {
    "teleportation": protocols.teleportation_legs_perturbed,
    "swap": protocols.entanglement_swap_legs_perturbed,
}
BASICS_LETS = ("loop", "turn_12")
BIPRODUCT_LETS = ("sigma_sums", "eta_sum", "eps_sum", "tensor_zero", "tensor_sums", "loops")
FORMATS = ("json", "svg", "dot")
TIMING = re.compile(r"\(\d+\.\d{3}s\)")


def control_source(name: str) -> str:
    left, right = CONTROLS[name]()
    gens = " ".join(protocols.ALPHABET.names)
    return f"gens {gens};\ncheck {sx.print_term(left)} == {sx.print_term(right)};\n"


def _check_output(name: str, workdir: Path) -> tuple[int, str]:
    """Exit status and stdout of ``cobeq check`` on a perturbed control,
    run from workdir so that the printed path is the bare file name."""
    filename = f"{name}_perturbed.ccc"
    (workdir / filename).write_text(control_source(name), encoding="utf-8")
    return _capture(["check", filename], workdir)


def _capture(argv: list[str], workdir: Path) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
    return status, out.getvalue()


def _protocol_output(workdir: Path) -> str:
    """``cobeq protocol all --oracle`` with each ``(0.123s)`` timing masked."""
    status, text = _capture(["protocol", "all", "--oracle"], workdir)
    assert status == 0
    return TIMING.sub("(#.###s)", text)


def _render(source: Path, name: str, fmt: str, workdir: Path) -> str:
    target = workdir / f"{name}.{fmt}"
    status, _ = _capture(["render", str(source), name, "--format", fmt,
                          "-o", str(target)], workdir)
    assert status == 0
    return target.read_text(encoding="utf-8")


def _outputs(workdir: Path) -> dict[str, str]:
    """Every golden file name mapped to the text it must hold."""
    outputs = {"protocol_all_oracle.out": _protocol_output(workdir)}
    for name in CONTROLS:
        status, text = _check_output(name, workdir)
        assert status == 1
        outputs[f"check_{name}_perturbed.out"] = text
    for name in BASICS_LETS:
        status, text = _capture(["normalize", str(BASICS), name], workdir)
        assert status == 0
        outputs[f"normalize_{name}.json"] = text
        outputs[f"render_{name}.json"] = _render(BASICS, name, "json", workdir)
    for name in BIPRODUCT_LETS:
        status, text = _capture(["normalize", str(BIPRODUCTS), name], workdir)
        assert status == 0
        outputs[f"normalize_{name}.json"] = text
        for fmt in FORMATS:
            outputs[f"render_{name}.{fmt}"] = _render(BIPRODUCTS, name, fmt, workdir)
    status, text = _capture(["normalize", str(SUPERDENSE), "rhs"], workdir)
    assert status == 0
    outputs["normalize_superdense_rhs.json"] = text
    return outputs


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_check_perturbed_control(name, tmp_path):
    status, text = _check_output(name, tmp_path)
    assert status == 1
    assert text == (GOLDEN / f"check_{name}_perturbed.out").read_text(encoding="utf-8")


def test_protocol_all_oracle(tmp_path):
    text = _protocol_output(tmp_path)
    assert text == (GOLDEN / "protocol_all_oracle.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", BASICS_LETS)
def test_normalize_basics(name, tmp_path):
    status, text = _capture(["normalize", str(BASICS), name], tmp_path)
    assert status == 0
    assert text == (GOLDEN / f"normalize_{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", BASICS_LETS)
def test_render_json_basics(name, tmp_path):
    text = _render(BASICS, name, "json", tmp_path)
    assert text == (GOLDEN / f"render_{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", BIPRODUCT_LETS)
def test_normalize_biproducts(name, tmp_path):
    status, text = _capture(["normalize", str(BIPRODUCTS), name], tmp_path)
    assert status == 0
    assert text == (GOLDEN / f"normalize_{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", BIPRODUCT_LETS)
def test_render_biproducts(name, fmt, tmp_path):
    text = _render(BIPRODUCTS, name, fmt, tmp_path)
    assert text == (GOLDEN / f"render_{name}.{fmt}").read_text(encoding="utf-8")


def test_normalize_superdense_rhs(tmp_path):
    # sixteen cells whose components are duals and tensors of sums
    status, text = _capture(["normalize", str(SUPERDENSE), "rhs"], tmp_path)
    assert status == 0
    assert text == (GOLDEN / "normalize_superdense_rhs.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for filename, text in _outputs(Path(tmp)).items():
            (GOLDEN / filename).write_text(text, encoding="utf-8")
            print(GOLDEN / filename, file=sys.stderr)
