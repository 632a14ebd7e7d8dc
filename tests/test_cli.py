"""The omnicc command-line toolchain."""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import (
    CrossModuleViolation,
    DuplicateExportError,
    ModuleCycleError,
    ModuleRevokedError,
    UnresolvedImportError,
)
from repro.translators import ARCHITECTURES

HELLO = 'int main() { emit_str("hi\\n"); emit_int(41 + 1); return 0; }'
LISP = "(defun main () (emit (* 6 7)) 0)"
ASM = """
    .text
    .globl main
main:
    li r1, 9
    hostcall 1
    li r1, 0
    jr ra
"""


@pytest.fixture
def src(tmp_path):
    path = tmp_path / "hello.c"
    path.write_text(HELLO)
    return path


class TestCompileAndRun:
    def test_compile_produces_object(self, src, tmp_path, capsys):
        out = tmp_path / "hello.oof"
        assert main(["compile", str(src), "-o", str(out)]) == 0
        assert out.exists() and out.read_bytes()[:4] == b"OOF1"
        assert "OmniVM instructions" in capsys.readouterr().out

    def test_run_source_on_interpreter(self, src, capsys):
        code = main(["run", str(src)])
        assert code == 0
        assert capsys.readouterr().out == "hi\n42"

    @pytest.mark.parametrize("arch", ["mips", "x86"])
    def test_run_source_on_target(self, src, arch, capsys):
        code = main(["run", str(src), "--arch", arch, "--cycles"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "hi\n42"
        assert "cycles=" in captured.err

    def test_compile_then_run_object(self, src, tmp_path, capsys):
        out = tmp_path / "hello.oof"
        main(["compile", str(src), "-o", str(out)])
        capsys.readouterr()
        assert main(["run", str(out)]) == 0
        assert capsys.readouterr().out == "hi\n42"

    def test_lisp_frontend(self, tmp_path, capsys):
        path = tmp_path / "prog.lisp"
        path.write_text(LISP)
        assert main(["run", str(path)]) == 0
        assert "42" in capsys.readouterr().out

    def test_asm_frontend(self, tmp_path, capsys):
        path = tmp_path / "prog.s"
        path.write_text(ASM)
        obj = tmp_path / "prog.oof"
        assert main(["asm", str(path), "-o", str(obj)]) == 0
        capsys.readouterr()
        assert main(["run", str(obj)]) == 0
        assert "9" in capsys.readouterr().out


class TestLink:
    def test_link_two_objects(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        a.write_text("extern int helper(void);"
                     "int main() { emit_int(helper()); return 0; }")
        b = tmp_path / "b.c"
        b.write_text("int helper(void) { return 7; }")
        oa, ob = tmp_path / "a.oof", tmp_path / "b.oof"
        main(["compile", str(a), "-o", str(oa)])
        main(["compile", str(b), "-o", str(ob)])
        module = tmp_path / "prog.oom"
        assert main(["link", str(oa), str(ob), "-o", str(module)]) == 0
        capsys.readouterr()
        assert main(["run", str(module)]) == 0
        assert "7" in capsys.readouterr().out


class TestDisasm:
    def test_disasm_lists_functions(self, src, capsys):
        assert main(["disasm", str(src)]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "hostcall" in out


class TestStats:
    def test_run_stats_flag(self, src, capsys):
        code = main(["run", str(src), "--arch", "sparc", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "hi\n42"
        assert "pipeline stats" in captured.err
        assert "translate" in captured.err
        assert "verify.sfi.stores_checked" in captured.err

    def test_stats_subcommand_all_targets(self, src, capsys):
        assert main(["stats", str(src)]) == 0
        out = capsys.readouterr().out
        assert "compile stages:" in out
        for stage in ("frontend.lex", "codegen", "link"):
            assert stage in out, stage
        for arch in ARCHITECTURES:
            assert arch in out
        for column in ("verify(ms)", "transl(ms)", "sfiver(ms)",
                       "exec(ms)", "expand", "sfi-chk"):
            assert column in out

    def test_stats_single_arch_json(self, src, capsys):
        assert main(["stats", str(src), "--arch", "mips", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["targets"]) == ["mips"]
        target = report["targets"]["mips"]
        assert target["counters"]["verify.sfi.stores_checked"] >= 1
        assert target["counters"]["execute.sfi.dynamic"] >= 1
        assert target["expansion_ratio"] > 1.0
        assert target["dynamic_expansion_ratio"] > 1.0
        assert "translate" in target["stage_seconds"]
        assert report["omni_instret"] > 0

    def test_stats_no_sfi(self, src, capsys):
        assert main(["stats", str(src), "--arch", "x86", "--no-sfi",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        counters = report["targets"]["x86"]["counters"]
        assert report["sfi"] is False
        assert "execute.sfi.dynamic" not in counters


class TestErrors:
    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "nonexistent.c"]) == 1

    def test_exit_code_propagates(self, tmp_path):
        path = tmp_path / "m.c"
        path.write_text("int main() { return 5; }")
        assert main(["run", str(path)]) == 5


class TestServe:
    SPINNER = "int main() { while (1) ; return 0; }"

    def _write_requests(self, tmp_path, specs):
        path = tmp_path / "reqs.json"
        path.write_text(json.dumps(specs))
        return path

    def test_serve_batch_from_source(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            {"source": HELLO, "id": "hello", "repeat": 3},
        ])
        code = main(["serve", "--requests", str(reqs),
                     "--arch", "mips", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "hello#0" in captured.out and "hello#2" in captured.out
        assert "3 requests" in captured.out and "3 ok" in captured.out

    def test_serve_batch_from_path(self, src, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            {"path": str(src), "id": "file"},
        ])
        assert main(["serve", "--requests", str(reqs)]) == 0
        assert "file" in capsys.readouterr().out

    def test_serve_json_summary(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            {"source": HELLO, "id": "a"},
            {"source": HELLO, "id": "b", "arch": "x86"},
        ])
        code = main(["serve", "--requests", str(reqs), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["requests"] == 2 and summary["ok"] == 2
        assert summary["errors"] == 0
        assert summary["service"]["counters"]["ok"] == 2
        by_id = {r["request_id"]: r for r in summary["responses"]}
        assert by_id["a"]["arch"] == "omnivm"
        assert by_id["b"]["arch"] == "x86"

    def test_serve_deadline_makes_exit_nonzero(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            {"source": HELLO, "id": "fine"},
            {"source": self.SPINNER, "id": "spin",
             "deadline_seconds": 0.1, "fuel": 1000000000},
        ])
        code = main(["serve", "--requests", str(reqs),
                     "--arch", "mips", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "DeadlineExceeded" in captured.out
        assert "1 errors" in captured.out

    def test_serve_rejects_non_array(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps({"source": HELLO}))
        assert main(["serve", "--requests", str(reqs)]) == 2
        assert "JSON array" in capsys.readouterr().err

    def test_serve_rejects_spec_without_program(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [{"id": "empty"}])
        assert main(["serve", "--requests", str(reqs)]) == 2
        assert "neither" in capsys.readouterr().err


class TestLinkErrorExitCodes:
    """Each typed dynamic-link error maps to its documented exit
    status, so scripts driving ``omnicc`` can react without parsing
    stderr (4=unresolved, 5=cycle, 6=revoked, 7=cross-module SFI,
    8=duplicate export)."""

    @pytest.mark.parametrize("make_error,expected", [
        (lambda: UnresolvedImportError("f", importer="main"), 4),
        (lambda: ModuleCycleError(("a", "b")), 5),
        (lambda: ModuleRevokedError("libmath", 1), 6),
        (lambda: CrossModuleViolation("stray jump", module="a"), 7),
        (lambda: DuplicateExportError("f", ("a", "b")), 8),
    ], ids=["unresolved", "cycle", "revoked", "cross-module",
            "duplicate"])
    def test_documented_mapping(self, make_error, expected, tmp_path,
                                monkeypatch, capsys):
        import repro.cli as cli

        def boom(args):
            raise make_error()

        monkeypatch.setattr(cli, "_run_linked", boom)
        src = tmp_path / "main.c"
        src.write_text("int main() { return 0; }")
        lib = tmp_path / "lib.c"
        lib.write_text("int f(int x) { return x; }")
        code = main(["run", str(src), "--link", str(lib)])
        assert code == expected
        assert "error" in capsys.readouterr().err

    def test_unresolved_import_end_to_end(self, tmp_path, capsys):
        src = tmp_path / "main.c"
        src.write_text(
            "extern int missing(int x);"
            "int main() { return missing(1); }")
        lib = tmp_path / "lib.c"
        lib.write_text("int f(int x) { return x; }")
        assert main(["run", str(src), "--link", str(lib)]) == 4
        assert "unresolved import" in capsys.readouterr().err

    def test_duplicate_export_end_to_end(self, tmp_path, capsys):
        src = tmp_path / "main.c"
        src.write_text(
            "extern int f(int x); int main() { return f(1); }")
        lib_a = tmp_path / "liba.c"
        lib_a.write_text("int f(int x) { return 1; }")
        lib_b = tmp_path / "libb.c"
        lib_b.write_text("int f(int x) { return 2; }")
        assert main(["run", str(src), "--link", str(lib_a),
                     "--link", str(lib_b)]) == 8
        assert "duplicate export" in capsys.readouterr().err

    def test_module_cycle_end_to_end(self, tmp_path, capsys):
        src = tmp_path / "main.c"
        src.write_text(
            "extern int g(int x);"
            "int f(int x) { return x; }"
            "int main() { return g(1); }")
        lib = tmp_path / "lib.c"
        lib.write_text(
            "extern int f(int x);"
            "int g(int x) { return f(x); }")
        assert main(["run", str(src), "--link", str(lib)]) == 5
        assert "cycle" in capsys.readouterr().err


class TestSfiCheck:
    def test_single_arch_reports_safe(self, capsys):
        assert main(["sfi-check", "--arch", "mips"]) == 0
        out = capsys.readouterr().out
        assert "all guard templates safe" in out
        assert "mips" in out

    def test_json_output_parses(self, capsys):
        assert main(["sfi-check", "--arch", "x86", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["states_checked"] > 0
        assert all(entry["counterexample"] is None
                   for entry in payload["templates"])
        assert {entry["arch"] for entry in payload["templates"]} == {"x86"}

    def test_unknown_arch_is_usage_error(self, capsys):
        assert main(["sfi-check", "--arch", "vax"]) == 2
        assert "unknown target" in capsys.readouterr().err


def _readme_cli_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```(?:bash|sh|shell)\n(.*?)```",
                        readme.read_text(), re.S)
    return [line for block in blocks for line in block.splitlines()
            if "python -m repro " in line]


def test_readme_cli_lines_parse():
    """Every ``python -m repro ...`` line in README's shell blocks is
    accepted by the CLI's argument parser (parsed, not run)."""
    lines = _readme_cli_lines()
    assert len(lines) >= 20
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line.split("python -m repro ", 1)[1],
                           comments=True)
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
