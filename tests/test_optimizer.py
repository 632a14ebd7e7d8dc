"""Unit + property tests for the machine-independent optimizer.

The critical property — optimization preserves observable behaviour — is
checked two ways: targeted unit tests per pass, and a hypothesis-driven
differential test compiling randomly generated integer expression
programs at O0 and O2 and asserting identical output.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompileOptions, compile_to_ir
from repro.ir.ir import BasicBlock, Const, Function, Instr, Temp
from repro.opt import addrfold, constfold, dce, licm, localopt, simplifycfg, strength
from repro.opt.pipeline import OptOptions, optimize_function
from tests.conftest import compile_run


def build(source, opt_level=0):
    return compile_to_ir(source, CompileOptions(opt_level=opt_level))


def all_instrs(func):
    return [i for b in func.blocks for i in b.all_instrs()]


class TestConstFold:
    def test_folds_arithmetic(self):
        mod = build("int f() { return 3 * 4 + 5; }")
        func = mod.function("f")
        optimize_function(func)
        # After the pipeline, the function is a bare `ret 17`.
        assert len(func.blocks) == 1
        assert not func.blocks[0].instrs
        assert func.blocks[0].terminator.args[0] == Const(17, "i32")

    def test_division_by_zero_not_folded(self):
        mod = build("int f(int a) { return a / 0; }")
        func = mod.function("f")
        # 'a / 0' has non-const lhs; make a const case explicitly:
        mod2 = build("int g() { return 7 / 0; }")
        g = mod2.function("g")
        changes = constfold.run(g)
        assert all(
            not (i.op == "copy" and isinstance(i.args[0], Const))
            or i.args[0].value != 0 or True
            for i in all_instrs(g)
        )
        # The div instruction must survive to trap at runtime.
        assert any(i.op == "bin" and i.subop == "div" for i in all_instrs(g))

    def test_identities(self):
        mod = build("int f(int a) { return (a + 0) * 1 + (a & -1) - (a ^ 0) + a * 0; }")
        func = mod.function("f")
        optimize_function(func)
        muls = [i for i in all_instrs(func) if i.op == "bin" and i.subop == "mul"]
        assert not muls

    def test_branch_folding(self):
        mod = build("int f() { if (1 < 2) return 10; return 20; }")
        func = mod.function("f")
        optimize_function(func)
        assert all(b.terminator.op != "br" for b in func.blocks)

    def test_behaviour_preserved(self, minic):
        src = """
        int main() {
            emit_int(2 + 3 * 4 - 6 / 2);
            emit_int((1 << 4) | (256 >> 4));
            return 0;
        }
        """
        assert minic(src, opt_level=2) == minic(src, opt_level=0)


class TestLocalOpt:
    def test_copy_propagation(self):
        mod = build("int f(int a) { int b = a; int c = b; return c; }")
        func = mod.function("f")
        optimize_function(func)
        # Everything collapses to `ret a` (param temp).
        assert func.blocks[0].terminator.args[0] == func.params[0]

    def test_cse_reuses_computation(self):
        mod = build("int f(int a, int b) { return (a*b) + (a*b); }")
        func = mod.function("f")
        before = sum(1 for i in all_instrs(func)
                     if i.op == "bin" and i.subop == "mul")
        assert before == 2
        optimize_function(func)
        after = sum(1 for i in all_instrs(func)
                    if i.op == "bin" and i.subop == "mul")
        assert after == 1

    def test_load_cse_killed_by_store(self):
        mod = build("""
        int g;
        int f() { int a = g; g = a + 1; return a + g; }
        """)
        func = mod.function("f")
        optimize_function(func)
        loads = [i for i in all_instrs(func) if i.op == "load"]
        assert len(loads) == 2  # the store invalidates the first load

    @staticmethod
    def one_block(*instrs, ret):
        func = Function("f")
        func.blocks = [BasicBlock("entry", list(instrs), Instr("ret", args=[ret]))]
        return func

    def test_cse_forgets_a_cast_whose_operand_changes(self):
        x, y, f1, f2 = (Temp(0, "i32"), Temp(1, "i32"), Temp(2, "f64"),
                        Temp(3, "f64"))
        func = self.one_block(
            Instr("cast", f1, [x], subop="i2f"),
            Instr("bin", x, [y, Const(1, "i32")], subop="add"),
            Instr("cast", f2, [x], subop="i2f"),
            ret=f2)
        assert localopt.local_cse(func) == 0
        assert func.blocks[0].instrs[2].op == "cast"

    def test_cse_forgets_a_value_that_overwrote_its_operand(self):
        # After x = x + 1, another x + 1 is a new value, not x.
        x, y = Temp(0, "i32"), Temp(1, "i32")
        func = self.one_block(
            Instr("bin", x, [x, Const(1, "i32")], subop="add"),
            Instr("bin", y, [x, Const(1, "i32")], subop="add"),
            ret=y)
        assert localopt.local_cse(func) == 0
        assert func.blocks[0].instrs[1].op == "bin"

    def test_load_cse_between_pure_code(self, minic):
        src = """
        int g = 5;
        int main() { emit_int(g + g); return 0; }
        """
        assert minic(src, opt_level=2) == [10]


class TestDCE:
    def test_removes_dead_chain(self):
        mod = build("int f(int a) { int unused = a * 17 + 4; return a; }")
        func = mod.function("f")
        optimize_function(func)
        assert not any(i.op == "bin" for i in all_instrs(func))

    def test_removes_a_dead_loop_carried_value(self):
        # `s` feeds only itself around the loop: dead, though used.
        mod = build("""
        int f(int n) { int s = 0; int i;
            for (i = 0; i < n; i++) s = s * 3 + i;
            return n; }
        """)
        func = mod.function("f")
        optimize_function(func)
        assert not any(i.op == "bin" and i.subop == "mul" for i in all_instrs(func))

    def test_keeps_side_effects(self):
        mod = build("int g; int f(int a) { g = a; return 0; }")
        func = mod.function("f")
        optimize_function(func)
        assert any(i.op == "store" for i in all_instrs(func))

    def test_keeps_calls(self):
        mod = build("""
        int h(int a) { return a; }
        int f() { h(3); return 0; }
        """)
        func = mod.function("f")
        optimize_function(func)
        assert any(i.op == "call" for i in all_instrs(func))


class TestStrength:
    def test_mul_pow2_becomes_shift(self):
        mod = build("int f(int a) { return a * 8; }")
        func = mod.function("f")
        strength.run(func)
        assert any(i.op == "bin" and i.subop == "shl" for i in all_instrs(func))
        assert not any(i.op == "bin" and i.subop == "mul"
                       for i in all_instrs(func))

    def test_signed_div_not_reduced(self):
        mod = build("int f(int a) { return a / 4; }")
        func = mod.function("f")
        strength.run(func)
        assert any(i.op == "bin" and i.subop == "div" for i in all_instrs(func))

    def test_unsigned_div_and_rem_reduced(self):
        mod = build("uint f(uint a) { return a / 8 + a % 16; }")
        func = mod.function("f")
        constfold.run(func)
        strength.run(func)
        subops = {i.subop for i in all_instrs(func) if i.op == "bin"}
        assert "div" not in subops and "rem" not in subops

    def test_semantics_preserved_for_negative_division(self, minic):
        src = "int main() { int a = -9; emit_int(a / 4); emit_int(a % 4); return 0; }"
        assert minic(src, opt_level=2) == [-2, -1]


class TestLICM:
    def test_hoists_invariant(self):
        mod = build("""
        int f(int n, int k) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) s += k * 3;
            return s;
        }
        """)
        func = mod.function("f")
        optimize_function(func)
        from repro.ir.cfg import natural_loops, predecessors

        loops = natural_loops(func, predecessors(func))
        assert loops
        body_labels = loops[0].body
        in_loop_muls = [
            i for b in func.blocks if b.label in body_labels
            for i in b.instrs if i.op == "bin" and i.subop == "mul"
        ]
        assert not in_loop_muls

    def test_does_not_hoist_traps(self):
        mod = build("""
        int f(int n, int d) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) if (d != 0) s += 100 / d;
            return s;
        }
        """)
        func = mod.function("f")
        optimize_function(func)
        # 100/d must stay guarded: a zero-trip loop with d==0 must not trap.
        _code, host = compile_run("""
        int f(int n, int d) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) if (d != 0) s += 100 / d;
            return s;
        }
        int main() { emit_int(f(5, 0)); emit_int(f(3, 5)); return 0; }
        """, opt_level=2)
        assert host.output_values() == [0, 60]

    def test_loop_behaviour_preserved(self, minic):
        src = """
        int main() {
            int s = 0; int i; int k = 7;
            for (i = 0; i < 10; i++) s += i * k + (k << 2);
            emit_int(s);
            return 0;
        }
        """
        assert minic(src, opt_level=2) == minic(src, opt_level=0)


class TestSimplifyCFG:
    def test_merges_straightline_chains(self):
        mod = build("int f(int a) { int b = a + 1; int c = b * 2; return c; }")
        func = mod.function("f")
        optimize_function(func)
        assert len(func.blocks) == 1

    def test_folds_constant_diamond(self):
        mod = build("""
        int f() {
            int x;
            if (3 > 2) x = 1; else x = 2;
            return x;
        }
        """)
        func = mod.function("f")
        optimize_function(func)
        assert len(func.blocks) == 1


class TestAddrFold:
    def test_folds_constant_offsets(self):
        mod = build("""
        struct S { int a; int b; int c; };
        int f(struct S *s) { return s->c; }
        """, opt_level=2)
        func = mod.function("f")
        addrfold.run(func)
        loads = [i for i in all_instrs(func) if i.op == "load"]
        assert loads and getattr(loads[0], "offset", 0) == 8

    def test_indexed_mode_selected(self):
        mod = build("int f(int *a, int i) { return a[i]; }", opt_level=2)
        func = mod.function("f")
        addrfold.run(func)
        loads = [i for i in all_instrs(func) if i.op == "load"]
        assert getattr(loads[0], "addr_mode", "simple") == "indexed"

    def test_no_fold_through_multi_def(self, minic):
        # p changes inside the loop: folding its add would be wrong.
        src = """
        int a[4] = {1, 2, 3, 4};
        int main() {
            int *p = a;
            int s = 0;
            int i;
            for (i = 0; i < 4; i++) { s += *(p + 1 - 1); p++; }
            emit_int(s);
            return 0;
        }
        """
        assert minic(src, opt_level=2) == [10]


# ---------------------------------------------------------------------------
# Property: O2 == O0 on randomly generated expression programs.
# ---------------------------------------------------------------------------

_VARS = ["a", "b", "c"]


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            st.integers(min_value=-100, max_value=100).map(str),
            st.sampled_from(_VARS),
        )
    sub = _exprs(depth - 1)
    def binop(op):
        return st.tuples(sub, sub).map(lambda t: f"({t[0]} {op} {t[1]})")
    return st.one_of(
        sub,
        binop("+"), binop("-"), binop("*"),
        binop("&"), binop("|"), binop("^"),
        binop("<"), binop("=="),
        st.tuples(sub, st.integers(min_value=0, max_value=8)).map(
            lambda t: f"({t[0]} << {t[1]})"
        ),
        st.tuples(sub, st.integers(min_value=0, max_value=8)).map(
            lambda t: f"({t[0]} >> {t[1]})"
        ),
        st.tuples(sub, st.integers(min_value=1, max_value=9)).map(
            lambda t: f"({t[0]} / {t[1]})"
        ),
        st.tuples(sub, sub, sub).map(
            lambda t: f"({t[0]} ? {t[1]} : {t[2]})"
        ),
    )


@settings(max_examples=40, deadline=None)
@given(expr=_exprs(3),
       values=st.tuples(*[st.integers(min_value=-1000, max_value=1000)] * 3))
def test_optimizer_preserves_random_expressions(expr, values):
    source = f"""
    int a = {values[0]}; int b = {values[1]}; int c = {values[2]};
    int main() {{ emit_int({expr}); return 0; }}
    """
    _c0, host0 = compile_run(source, opt_level=0)
    _c2, host2 = compile_run(source, opt_level=2)
    assert host0.output_values() == host2.output_values()
