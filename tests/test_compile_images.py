"""The compiler's output is pinned: OmniVM images stay byte-identical.

``compile_images.json`` holds the sha256 of the text and data image of
every SPEC kernel at -O0/-O1/-O2 with 8 and 16 registers, and of the
MiniC + MiniLisp demo.  A compiler change that is meant to be a pure
speed-up must leave every one of them unchanged; one that changes code
on purpose regenerates the file and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.evalharness.figures import figure2_program
from repro.workloads import suite

IMAGES = json.loads((Path(__file__).with_name("compile_images.json")).read_text())


def digests(program) -> dict[str, str]:
    return {"text": hashlib.sha256(bytes(program.text_image)).hexdigest(),
            "data": hashlib.sha256(bytes(program.data_image)).hexdigest()}


@pytest.mark.parametrize("regs", [8, 16])
@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_spec_kernel_image(name, level, regs):
    program = suite.build(name, opt_level=level, num_regs=regs)
    assert digests(program) == IMAGES[f"{name}/O{level}/r{regs}"]


def test_minilisp_demo_image():
    assert digests(figure2_program()) == IMAGES["minilisp-demo"]


def test_every_pinned_image_is_checked():
    assert len(IMAGES) == 4 * 3 * 2 + 1
