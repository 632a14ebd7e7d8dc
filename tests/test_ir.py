"""Unit tests for the IR core, CFG analyses, and the IR builder."""

import pytest

from repro.compiler import CompileOptions, compile_to_ir
from repro.errors import IRError
from repro.ir import cfg
from repro.ir.ir import (
    BasicBlock,
    Const,
    Function,
    Instr,
    Temp,
    verify_function,
)


def build_ir(source, opt_level=0):
    return compile_to_ir(source, CompileOptions(opt_level=opt_level))


def make_diamond() -> Function:
    """entry -> (left | right) -> join, with a loop join->entry2->join."""
    func = Function("diamond")
    t = func.new_temp("i32")
    entry = BasicBlock("entry", [Instr("copy", t, [Const(1, "i32")])],
                       Instr("br", args=[t, Const(0, "i32")], subop="ne",
                             cmp_ty="i32", targets=["left", "right"]))
    left = BasicBlock("left", [], Instr("jump", targets=["join"]))
    right = BasicBlock("right", [], Instr("jump", targets=["join"]))
    join = BasicBlock("join", [], Instr("ret", args=[t]))
    func.blocks = [entry, left, right, join]
    return func


class TestIRStructure:
    def test_verify_accepts_wellformed(self):
        verify_function(make_diamond())

    def test_verify_rejects_missing_terminator(self):
        func = make_diamond()
        func.blocks[1].terminator = None
        with pytest.raises(IRError):
            verify_function(func)

    def test_verify_rejects_unknown_target(self):
        func = make_diamond()
        func.blocks[1].terminator = Instr("jump", targets=["nowhere"])
        with pytest.raises(IRError):
            verify_function(func)

    def test_verify_rejects_duplicate_labels(self):
        func = make_diamond()
        func.blocks[2].label = "left"
        func.blocks[2].terminator = Instr("jump", targets=["join"])
        with pytest.raises(IRError):
            verify_function(func)

    def test_instr_replace_uses(self):
        a, b = Temp(0, "i32"), Temp(1, "i32")
        instr = Instr("bin", Temp(2, "i32"), [a, b], subop="add")
        instr.replace_uses({a: Const(5, "i32")})
        assert instr.args[0] == Const(5, "i32")
        assert instr.args[1] == b


class TestCFG:
    def test_predecessors(self):
        func = make_diamond()
        preds = cfg.predecessors(func)
        assert sorted(preds["join"]) == ["left", "right"]
        assert preds["entry"] == []

    def test_reverse_postorder_starts_at_entry(self):
        order = cfg.reverse_postorder(make_diamond())
        assert order[0] == "entry"
        assert order[-1] == "join"
        assert set(order) == {"entry", "left", "right", "join"}

    def test_dominators(self):
        func = make_diamond()
        tree = cfg.DominatorTree(cfg.reverse_postorder(func), cfg.predecessors(func))
        assert tree.idom == {"entry": "entry", "left": "entry",
                             "right": "entry", "join": "entry"}
        assert tree.dominates("entry", "join")
        assert tree.dominates("left", "left")
        assert not tree.dominates("left", "join")
        assert not tree.dominates("join", "entry")

    def test_dominance_matches_the_path_definition(self):
        """On random CFGs (with unreachable blocks and irreducible
        edges), `a` dominates `b` exactly when `b` is reachable and no
        longer is once `a` is removed."""
        import random

        rng = random.Random(7)
        for _ in range(150):
            labels = [f"b{i}" for i in range(rng.randint(1, 9))]
            func = Function("g")
            for label in labels:
                targets = rng.choices(labels, k=rng.choice((0, 1, 2, 2)))
                if len(targets) == 2:
                    term = Instr("br", args=[Const(0, "i32"), Const(0, "i32")],
                                 subop="eq", cmp_ty="i32", targets=targets)
                elif targets:
                    term = Instr("jump", targets=targets)
                else:
                    term = Instr("ret")
                func.blocks.append(BasicBlock(label, [], term))
            succ = cfg.successors(func)

            def reach(without):
                seen, stack = set(), ["b0"] if without != "b0" else []
                while stack:
                    node = stack.pop()
                    if node not in seen:
                        seen.add(node)
                        stack.extend(s for s in succ[node] if s != without)
                return seen

            tree = cfg.DominatorTree(cfg.reverse_postorder(func),
                                     cfg.predecessors(func))
            reachable = reach(None)
            assert set(tree.order) == reachable
            for a in labels:
                cut = reach(a)
                for b in labels:
                    expected = b in reachable and a in reachable and (
                        a == b or b not in cut)
                    assert tree.dominates(a, b) == expected, (a, b)

    def test_remove_unreachable(self):
        func = make_diamond()
        func.blocks.append(BasicBlock("orphan", [],
                                      Instr("jump", targets=["join"])))
        removed = cfg.remove_unreachable(func)
        assert removed == 1
        assert all(b.label != "orphan" for b in func.blocks)

    def test_natural_loop_detection(self):
        ir_mod = build_ir("""
        int f(int n) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) s += i;
            return s;
        }
        """)
        func = ir_mod.function("f")
        loops = cfg.natural_loops(func, cfg.predecessors(func))
        assert len(loops) == 1
        assert loops[0].header in loops[0].body
        assert len(loops[0].body) >= 2

    def test_nested_loops_sorted_inner_first(self):
        ir_mod = build_ir("""
        int f(int n) {
            int s = 0;
            int i; int j;
            for (i = 0; i < n; i++)
                for (j = 0; j < n; j++)
                    s += i * j;
            return s;
        }
        """)
        func = ir_mod.function("f")
        loops = cfg.natural_loops(func, cfg.predecessors(func))
        assert len(loops) == 2
        assert len(loops[0].body) < len(loops[1].body)
        assert loops[0].body < loops[1].body  # inner nested in outer


class TestBuilderLowering:
    def test_scalar_local_stays_in_register(self):
        ir_mod = build_ir("int f() { int x = 1; return x + 1; }")
        func = ir_mod.function("f")
        assert not func.stack_slots  # no frame traffic for x

    def test_address_taken_local_gets_slot(self):
        ir_mod = build_ir("int f() { int x = 1; int *p = &x; return *p; }")
        func = ir_mod.function("f")
        assert len(func.stack_slots) == 1

    def test_array_local_gets_slot(self):
        ir_mod = build_ir("int f() { int a[8]; a[0] = 1; return a[0]; }")
        func = ir_mod.function("f")
        assert func.stack_slots[0].size == 32

    def test_short_circuit_produces_branches(self):
        ir_mod = build_ir("int f(int a, int b) { return a && b; }")
        func = ir_mod.function("f")
        branch_count = sum(
            1 for b in func.blocks if b.terminator.op == "br"
        )
        assert branch_count >= 2

    def test_string_literals_pooled(self):
        ir_mod = build_ir("""
        int f() { emit_str("same"); emit_str("same"); return 0; }
        """)
        strings = [g for g in ir_mod.globals if g.name.startswith(".str")]
        assert len(strings) == 1

    def test_global_reloc_for_function_pointer(self):
        ir_mod = build_ir("""
        int f(int x) { return x; }
        int (*fp)(int) = f;
        int main() { return fp(1); }
        """)
        glob = ir_mod.global_named("fp")
        assert glob.relocs == [(0, "f")]

    def test_implicit_return_added(self):
        ir_mod = build_ir("void f() { }")
        func = ir_mod.function("f")
        assert func.blocks[-1].terminator.op == "ret"
