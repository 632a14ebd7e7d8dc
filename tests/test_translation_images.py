"""The translators' output is pinned: native translations stay byte-identical.

``translation_images.json`` holds one sha256 per translation of every
SPEC kernel for every target under the four profiles (mobile with and
without SFI, native gcc and native cc), and of one dynamically linked
three-module image per target.  The digest covers every persisted
``MInstr`` field (the fields the disk tier stores), the indirect-entry
map and the entry point.  A translator change that is meant to be a
pure refactor must leave every one of them unchanged; one that changes
code on purpose regenerates the file (``python
tests/test_translation_images.py``) and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cache import _MINSTR_FIELDS
from repro.compiler import CompileOptions, compile_to_object
from repro.native.profiles import MOBILE_NOSFI, MOBILE_SFI, NATIVE_CC, NATIVE_GCC
from repro.runtime.linker import ModuleRegistry, dynamic_link, translate_image
from repro.translators import ARCHITECTURES, translate
from repro.workloads import suite

PATH = Path(__file__).with_name("translation_images.json")

PROFILES = {"mobile-sfi": MOBILE_SFI, "mobile-nosfi": MOBILE_NOSFI,
            "native-gcc": NATIVE_GCC, "native-cc": NATIVE_CC}

LIBRARY = """
int scale(int x) { return x * 3; }
int offset(int x) { return x + 1; }
"""

MIDDLE = """
extern int scale(int x);
extern int offset(int x);
int compose(int x) { return scale(offset(x)); }
"""

APP = """
extern int scale(int x);
extern int compose(int x);
int main() {
    emit_int(scale(10));
    emit_int(compose(6));
    return 0;
}
"""


def digest(translated) -> str:
    payload = {
        "instrs": [[getattr(instr, name) for name in _MINSTR_FIELDS]
                   for instr in translated.instrs],
        "omni_to_native": sorted(translated.omni_to_native.items()),
        "entry_native": translated.entry_native,
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def linked_image():
    registry = ModuleRegistry()
    for name, source in (("libmath", LIBRARY), ("libcompose", MIDDLE),
                         ("app", APP)):
        registry.register(
            name, compile_to_object(source, CompileOptions(module_name=name)))
    return dynamic_link(registry, ["app"])


def kernel_key(name, arch, profile):
    return f"{name}/{arch}/{profile}"


def image_key(arch):
    return f"image/{arch}/mobile-sfi"


def current() -> dict[str, str]:
    images = {}
    for name in suite.WORKLOADS:
        program = suite.build(name)
        for arch in ARCHITECTURES:
            for profile, options in PROFILES.items():
                images[kernel_key(name, arch, profile)] = digest(
                    translate(program, arch, options))
    image = linked_image()
    for arch in ARCHITECTURES:
        images[image_key(arch)] = digest(
            translate_image(image, arch, MOBILE_SFI))
    return images


IMAGES = json.loads(PATH.read_text()) if PATH.exists() else {}


@pytest.mark.parametrize("profile", list(PROFILES))
@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_spec_kernel_translation(name, arch, profile):
    program = suite.build(name)
    translated = translate(program, arch, PROFILES[profile])
    assert digest(translated) == IMAGES[kernel_key(name, arch, profile)]


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_linked_image_translation(arch):
    translated = translate_image(linked_image(), arch, MOBILE_SFI)
    assert digest(translated) == IMAGES[image_key(arch)]


def test_every_pinned_translation_is_checked():
    archs = len(ARCHITECTURES)
    assert len(IMAGES) == len(suite.WORKLOADS) * archs * len(PROFILES) + archs


if __name__ == "__main__":
    PATH.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
