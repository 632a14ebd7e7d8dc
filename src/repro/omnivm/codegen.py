"""Code generation from the IR to OmniVM object modules.

This is the back end of the "compiler to OmniVM" the paper assumes (their
retargeted gcc/lcc).  By the time code reaches here, all machine-
independent optimization has happened; code generation is deliberately
straightforward — OmniVM was designed to be "a simple target for a
high-level language compiler":

* temps get OmniVM registers from the linear-scan allocator (spills go to
  frame slots, reloaded through the reserved scratch registers r5/r6 and
  f14/f15);
* memory instructions use the base+imm32 and indexed addressing modes
  selected by the :mod:`repro.opt.addrfold` pass;
* IR compare-branches map 1:1 onto OmniVM's general compare-and-branch
  instructions (immediate forms when the constant fits the 18-bit field);
* the ABI: args in r1..r4 / f1..f4 (extra args on the stack), results in
  r1/f1, r14 = ra, r15 = sp, callee-saved r8..r13 and f8..f13.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import metrics
from repro.errors import CompileError
from repro.ir import ir
from repro.ir.ir import Const, Function, GlobalRef, Instr, Module, Operand, Temp
from repro.omnivm.isa import (
    FREG_ARGS,
    INSTR_SIZE,
    REG_ARGS,
    REG_RA,
    REG_SP,
    VMInstr,
)
from repro.omnivm.objfile import DataReloc, ObjectModule
from repro.opt.addrfold import address_operands
from repro.regalloc.linearscan import (
    Assignment,
    Location,
    RegisterFile,
    allocate,
    omnivm_register_file,
)
from repro.utils.bits import align_up, s32, u32

SCRATCH = (5, 6)  # reserved integer scratch registers
FSCRATCH = (14, 15)  # reserved FP scratch registers

_IMM2_MIN, _IMM2_MAX = -(1 << 17), (1 << 17) - 1

_LOAD_OP = {"i8": "lb", "u8": "lbu", "i16": "lh", "u16": "lhu",
            "i32": "lw", "u32": "lw", "f32": "lfs", "f64": "lfd"}
_LOADX_OP = {"i8": "lbx", "u8": "lbux", "i16": "lhx", "u16": "lhux",
             "i32": "lwx", "u32": "lwx", "f32": "lfsx", "f64": "lfdx"}
_STORE_OP = {"i8": "sb", "u8": "sb", "i16": "sh", "u16": "sh",
             "i32": "sw", "u32": "sw", "f32": "sfs", "f64": "sfd"}
_STOREX_OP = {"i8": "sbx", "u8": "sbx", "i16": "shx", "u16": "shx",
              "i32": "swx", "u32": "swx", "f32": "sfsx", "f64": "sfdx"}

_BIN_RR = {"add": "add", "sub": "sub", "mul": "mul", "and": "and",
           "or": "or", "xor": "xor", "shl": "sll"}
_BIN_RI = {"add": "addi", "mul": "muli", "and": "andi",
           "or": "ori", "xor": "xori", "shl": "slli"}

_CMP_SET = {
    ("eq", True): "seq", ("ne", True): "sne", ("lt", True): "slt",
    ("le", True): "sle", ("gt", True): "sgt", ("ge", True): "sge",
    ("eq", False): "seq", ("ne", False): "sne", ("lt", False): "sltu",
    ("le", False): "sleu", ("gt", False): "sgtu", ("ge", False): "sgeu",
}

_BRANCH = {
    ("eq", True): "beq", ("ne", True): "bne", ("lt", True): "blt",
    ("le", True): "ble", ("gt", True): "bgt", ("ge", True): "bge",
    ("eq", False): "beq", ("ne", False): "bne", ("lt", False): "bltu",
    ("le", False): "bleu", ("gt", False): "bgtu", ("ge", False): "bgeu",
}

_FALU = {"add": "fadd", "sub": "fsub", "mul": "fmul", "div": "fdiv"}


@dataclass
class FrameLayout:
    """Byte offsets from sp for the pieces of a function frame."""

    out_args: int = 0
    spill_base: int = 0
    fspill_base: int = 0
    slot_base: dict[int, int] = field(default_factory=dict)
    save_base: int = 0
    ra_offset: int = 0
    size: int = 0


class FunctionEmitter:
    """Emits OmniVM code for one IR function."""

    def __init__(self, func: Function, obj: ObjectModule,
                 regfile: RegisterFile, func_index: int):
        self.func = func
        self.obj = obj
        self.regfile = regfile
        self.assignment: Assignment = allocate(func, regfile)
        self.frame = self._layout_frame()
        self.prefix = f".{func.name}"
        self.out: list[VMInstr] = []
        self.func_index = func_index

    # -- helpers -------------------------------------------------------------

    def emit(self, op: str, **operands) -> VMInstr:
        instr = VMInstr(op, **operands)
        self.out.append(instr)
        return instr

    def local_label(self, label: str) -> str:
        return f"{self.prefix}{label}"

    def mark_label(self, label: str) -> None:
        """Record that the next emitted instruction carries *label*."""
        index = len(self.out) * INSTR_SIZE
        self.obj.define(label, "text", self.text_base + index, is_global=False)

    # -- frame ------------------------------------------------------------------

    def _layout_frame(self) -> FrameLayout:
        frame = FrameLayout()
        out_args_words = 0
        for block in self.func.blocks:
            for instr in block.all_instrs():
                if instr.op in ("call", "icall", "hostcall"):
                    arg_count = len(instr.args)
                    if instr.op == "icall":
                        arg_count -= 1
                    out_args_words = max(out_args_words, max(0, arg_count - 4))
        frame.out_args = 0
        cursor = out_args_words * 8
        frame.spill_base = cursor
        cursor += self.assignment.spill_slots * 4
        cursor = align_up(cursor, 8)
        frame.fspill_base = cursor
        cursor += self.assignment.fspill_slots * 8
        for index, slot in enumerate(self.func.stack_slots):
            cursor = align_up(cursor, max(slot.align, 4))
            frame.slot_base[index] = cursor
            cursor += slot.size
        cursor = align_up(cursor, 8)
        frame.save_base = cursor
        cursor += 4 * len(self.assignment.used_callee_saved)
        cursor = align_up(cursor, 8)
        cursor += 8 * len(self.assignment.used_callee_saved_fp)
        frame.ra_offset = cursor
        cursor += 4
        frame.size = align_up(cursor, 8)
        return frame

    # -- operand access --------------------------------------------------------

    def loc(self, temp: Temp) -> Location:
        return self.assignment.locations[temp]

    def int_value(self, operand: Operand, scratch: int) -> int:
        """Materialize an integer operand into a register; returns reg no."""
        if isinstance(operand, Const):
            reg = SCRATCH[scratch]
            self.emit("li", rd=reg, imm=u32(int(operand.value)))
            return reg
        if isinstance(operand, GlobalRef):
            reg = SCRATCH[scratch]
            self.emit("li", rd=reg, label=operand.name)
            return reg
        location = self.loc(operand)
        if location.kind == "reg":
            return location.index
        reg = SCRATCH[scratch]
        self.emit("lw", rd=reg, rs=REG_SP,
                  imm=self.frame.spill_base + location.index * 4)
        return reg

    def fp_value(self, operand: Operand, scratch: int) -> int:
        if isinstance(operand, Const):
            freg = FSCRATCH[scratch]
            self._load_float_const(freg, float(operand.value), operand.ty)
            return freg
        location = self.loc(operand)
        if location.kind == "freg":
            return location.index
        freg = FSCRATCH[scratch]
        self.emit("lfd", fd=freg, rs=REG_SP,
                  imm=self.frame.fspill_base + location.index * 8)
        return freg

    def _load_float_const(self, freg: int, value: float, ty: str) -> None:
        """FP constants are materialized through the data section pool."""
        name = self.obj_float_pool(value, ty)
        reg = SCRATCH[0]
        self.emit("li", rd=reg, label=name)
        self.emit("lfs" if ty == "f32" else "lfd", fd=freg, rs=reg, imm=0)

    def obj_float_pool(self, value: float, ty: str) -> str:
        import struct as _struct

        if ty == "f32":
            payload = _struct.pack("<f", value)
        else:
            payload = _struct.pack("<d", value)
        key = (payload, ty)
        pool = getattr(self.obj, "_float_pool", None)
        if pool is None:
            pool = {}
            self.obj._float_pool = pool
        if key in pool:
            return pool[key]
        name = f".fc{len(pool)}"
        offset = align_up(len(self.obj.data), 8)
        self.obj.data = bytes(self.obj.data) + b"\x00" * (
            offset - len(self.obj.data)
        ) + payload
        self.obj.define(name, "data", offset, is_global=False)
        pool[key] = name
        return name

    def int_dest(self, temp: Temp) -> tuple[int, Location]:
        location = self.loc(temp)
        if location.kind == "reg":
            return location.index, location
        return SCRATCH[0], location

    def fp_dest(self, temp: Temp) -> tuple[int, Location]:
        location = self.loc(temp)
        if location.kind == "freg":
            return location.index, location
        return FSCRATCH[0], location

    def finish_dest(self, location: Location, reg: int) -> None:
        if location.kind == "spill":
            self.emit("sw", rt=reg, rs=REG_SP,
                      imm=self.frame.spill_base + location.index * 4)
        elif location.kind == "fspill":
            self.emit("sfd", ft=reg, rs=REG_SP,
                      imm=self.frame.fspill_base + location.index * 8)

    # -- function body ------------------------------------------------------------

    def run(self) -> None:
        self.text_base = len(self.obj.text) * INSTR_SIZE
        self.obj.define(self.func.name, "text", self.text_base, is_global=True)
        self._prologue()
        blocks = self.assignment.order.blocks  # the allocator's layout
        for position, block in enumerate(blocks):
            self.mark_label(self.local_label(block.label))
            for instr in block.instrs:
                self._emit_instr(instr)
            next_label = blocks[position + 1].label if position + 1 < len(blocks) else None
            self._emit_terminator(block.terminator, next_label)
        self.obj.text.extend(self.out)

    def _prologue(self) -> None:
        frame = self.frame
        if frame.size:
            self.emit("addi", rd=REG_SP, rs=REG_SP, imm=-frame.size)
        self.emit("sw", rt=REG_RA, rs=REG_SP, imm=frame.ra_offset)
        offset = frame.save_base
        for reg in self.assignment.used_callee_saved:
            self.emit("sw", rt=reg, rs=REG_SP, imm=offset)
            offset += 4
        offset = align_up(offset, 8)
        for freg in self.assignment.used_callee_saved_fp:
            self.emit("sfd", ft=freg, rs=REG_SP, imm=offset)
            offset += 8
        # Move incoming arguments to their allocated homes.
        int_index = 0
        fp_index = 0
        stack_arg = 0
        moves: list[tuple[str, int, Temp]] = []
        for param in self.func.params:
            if param.ty in ("f32", "f64"):
                if fp_index < len(FREG_ARGS):
                    moves.append(("freg", FREG_ARGS[fp_index], param))
                    fp_index += 1
                else:
                    moves.append(("fstack", stack_arg, param))
                    stack_arg += 1
            else:
                if int_index < len(REG_ARGS):
                    moves.append(("reg", REG_ARGS[int_index], param))
                    int_index += 1
                else:
                    moves.append(("stack", stack_arg, param))
                    stack_arg += 1
        self._emit_param_moves(moves)

    def _move_graph(self, moves: list[tuple[int, int]], bank: str) -> None:
        """Emit a parallel register permutation/assignment using one
        scratch register.  ``moves`` is a list of (dest, src) pairs with
        distinct dests; sources may repeat.  Moves forming cycles are
        broken by parking one source in the bank's scratch register."""
        scratch = SCRATCH[1] if bank == "int" else FSCRATCH[1]
        mov = (lambda d, s: self.emit("mov", rd=d, rs=s)) if bank == "int" \
            else (lambda d, s: self.emit("fmovd", fd=d, fs=s))
        pending = [(d, s) for d, s in moves if d != s]
        while pending:
            safe_index = None
            for index, (dest, _src) in enumerate(pending):
                blocked = any(
                    s == dest for j, (_, s) in enumerate(pending) if j != index
                )
                if not blocked:
                    safe_index = index
                    break
            if safe_index is not None:
                dest, src = pending.pop(safe_index)
                mov(dest, src)
            else:
                # Pure cycle: park the first source, retarget its readers.
                _, src = pending[0]
                mov(scratch, src)
                pending = [
                    (d, scratch if s == src else s) for d, s in pending
                ]
                pending = [(d, s) for d, s in pending if d != s]

    def _emit_param_moves(self, moves) -> None:
        """Move ABI argument registers into allocated homes.

        Ordering matters: (1) spill-resident register params store to the
        frame while every argument register still holds its value; (2)
        the register-to-register permutation runs with cycle breaking;
        (3) only then may stack-passed params load into their homes —
        a home may BE an argument register, which is free only after
        phase 2.
        """
        frame = self.frame
        reg_moves: list[tuple[int, int]] = []
        freg_moves: list[tuple[int, int]] = []
        stack_loads: list[tuple[str, int, object]] = []
        # Phase 1: spill-home register params; gather the rest.
        for kind, src, param in moves:
            if param not in self.assignment.locations:
                continue  # unused parameter
            location = self.loc(param)
            if kind in ("stack", "fstack"):
                stack_loads.append((kind, src, location))
            elif kind == "reg":
                if location.kind == "reg":
                    reg_moves.append((location.index, src))
                else:
                    self.finish_dest(location, src)
            elif kind == "freg":
                if location.kind == "freg":
                    freg_moves.append((location.index, src))
                else:
                    self.finish_dest(location, src)
        # Phase 2: register permutation with cycle breaking.
        self._move_graph(reg_moves, "int")
        self._move_graph(freg_moves, "fp")
        # Phase 3: stack-passed params (argument registers now free).
        for kind, src, location in stack_loads:
            if kind == "stack":
                reg = location.index if location.kind == "reg" else SCRATCH[0]
                self.emit("lw", rd=reg, rs=REG_SP, imm=frame.size + src * 8)
                self.finish_dest(location, reg)
            else:
                freg = location.index if location.kind == "freg" else FSCRATCH[0]
                self.emit("lfd", fd=freg, rs=REG_SP, imm=frame.size + src * 8)
                self.finish_dest(location, freg)

    def _epilogue(self) -> None:
        frame = self.frame
        offset = frame.save_base
        for reg in self.assignment.used_callee_saved:
            self.emit("lw", rd=reg, rs=REG_SP, imm=offset)
            offset += 4
        offset = align_up(offset, 8)
        for freg in self.assignment.used_callee_saved_fp:
            self.emit("lfd", fd=freg, rs=REG_SP, imm=offset)
            offset += 8
        self.emit("lw", rd=REG_RA, rs=REG_SP, imm=frame.ra_offset)
        if frame.size:
            self.emit("addi", rd=REG_SP, rs=REG_SP, imm=frame.size)
        self.emit("jr", rs=REG_RA)

    # -- instruction selection ---------------------------------------------------

    def _emit_instr(self, instr: Instr) -> None:
        op = instr.op
        if op == "copy":
            self._emit_copy(instr)
        elif op == "bin":
            self._emit_bin(instr)
        elif op == "cmp":
            self._emit_cmp(instr)
        elif op == "cast":
            self._emit_cast(instr)
        elif op == "load":
            self._emit_load(instr)
        elif op == "store":
            self._emit_store(instr)
        elif op == "frameaddr":
            reg, location = self.int_dest(instr.dest)
            offset = self.frame.slot_base[instr.slot]
            self.emit("addi", rd=reg, rs=REG_SP, imm=offset)
            self.finish_dest(location, reg)
        elif op in ("call", "icall", "hostcall"):
            self._emit_call(instr)
        elif op == "sethnd":
            reg = self.int_value(instr.args[0], 0)
            self.emit("sethnd", rs=reg)
        else:  # pragma: no cover
            raise CompileError(f"cannot select {instr}")

    def _emit_copy(self, instr: Instr) -> None:
        dest = instr.dest
        source = instr.args[0]
        if dest.ty in ("f32", "f64"):
            freg, location = self.fp_dest(dest)
            src = self.fp_value(source, 1)
            if location.kind == "freg" and src == freg:
                pass
            else:
                self.emit("fmovd" if dest.ty == "f64" else "fmovs",
                          fd=freg, fs=src)
            self.finish_dest(location, freg)
            return
        reg, location = self.int_dest(dest)
        if isinstance(source, Const):
            self.emit("li", rd=reg, imm=u32(int(source.value)))
        elif isinstance(source, GlobalRef):
            self.emit("li", rd=reg, label=source.name)
        else:
            src = self.int_value(source, 1)
            if not (location.kind == "reg" and src == reg):
                self.emit("mov", rd=reg, rs=src)
        self.finish_dest(location, reg)

    def _emit_bin(self, instr: Instr) -> None:
        ty = instr.dest.ty
        if ty in ("f32", "f64"):
            freg, location = self.fp_dest(instr.dest)
            a = self.fp_value(instr.args[0], 0)
            b = self.fp_value(instr.args[1], 1)
            base = _FALU.get(instr.subop)
            if base is None:
                raise CompileError(f"FP op {instr.subop!r} unsupported")
            suffix = "s" if ty == "f32" else "d"
            self.emit(base + suffix, fd=freg, fs=a, ft=b)
            self.finish_dest(location, freg)
            return
        reg, location = self.int_dest(instr.dest)
        subop = instr.subop
        a_op, b_op = instr.args
        signed = ir.is_signed(ty)
        if subop in ("div", "rem"):
            a = self.int_value(a_op, 0)
            b = self.int_value(b_op, 1)
            name = {"div": "div" if signed else "divu",
                    "rem": "rem" if signed else "remu"}[subop]
            self.emit(name, rd=reg, rs=a, rt=b)
        elif subop == "shr":
            a = self.int_value(a_op, 0)
            if isinstance(b_op, Const):
                self.emit("srai" if signed else "srli", rd=reg, rs=a,
                          imm=int(b_op.value) & 31)
            else:
                b = self.int_value(b_op, 1)
                self.emit("sra" if signed else "srl", rd=reg, rs=a, rt=b)
        elif subop == "sub" and isinstance(b_op, Const):
            a = self.int_value(a_op, 0)
            self.emit("addi", rd=reg, rs=a, imm=s32(-int(b_op.value)))
        elif isinstance(b_op, Const) and subop in _BIN_RI:
            a = self.int_value(a_op, 0)
            imm = int(b_op.value) & 31 if subop == "shl" else u32(int(b_op.value))
            self.emit(_BIN_RI[subop], rd=reg, rs=a, imm=imm)
        else:
            a = self.int_value(a_op, 0)
            b = self.int_value(b_op, 1)
            self.emit(_BIN_RR[subop], rd=reg, rs=a, rt=b)
        self.finish_dest(location, reg)

    def _emit_cmp(self, instr: Instr) -> None:
        reg, location = self.int_dest(instr.dest)
        cmp_ty = instr.cmp_ty
        if cmp_ty in ("f32", "f64"):
            self._emit_fp_compare_to_reg(instr, reg)
        else:
            signed = ir.is_signed(cmp_ty)
            a_op, b_op = instr.args
            if isinstance(b_op, Const):
                a = self.int_value(a_op, 0)
                name = _CMP_SET[(instr.subop, signed)] + "i"
                self.emit(name, rd=reg, rs=a, imm=u32(int(b_op.value)))
            else:
                a = self.int_value(a_op, 0)
                b = self.int_value(b_op, 1)
                self.emit(_CMP_SET[(instr.subop, signed)], rd=reg, rs=a, rt=b)
        self.finish_dest(location, reg)

    def _emit_fp_compare_to_reg(self, instr: Instr, reg: int) -> None:
        suffix = "s" if instr.cmp_ty == "f32" else "d"
        a = self.fp_value(instr.args[0], 0)
        b = self.fp_value(instr.args[1], 1)
        pred = instr.subop
        negate = False
        if pred == "ne":
            pred, negate = "eq", True
        if pred in ("gt", "ge"):
            a, b = b, a
            pred = {"gt": "lt", "ge": "le"}[pred]
        name = {"eq": "fceq", "lt": "fclt", "le": "fcle"}[pred] + suffix
        self.emit(name, rd=reg, fs=a, ft=b)
        if negate:
            self.emit("xori", rd=reg, rs=reg, imm=1)

    def _emit_cast(self, instr: Instr) -> None:
        subop = instr.subop
        dest = instr.dest
        source = instr.args[0]
        if subop == "bitcast":
            self._emit_copy(Instr("copy", dest, [source]))
            return
        if subop in ("sext8", "sext16", "zext8", "zext16"):
            reg, location = self.int_dest(dest)
            a = self.int_value(source, 0)
            self.emit(subop, rd=reg, rs=a)
            self.finish_dest(location, reg)
            return
        if subop in ("i2f", "u2f"):
            freg, location = self.fp_dest(dest)
            a = self.int_value(source, 0)
            single = dest.ty == "f32"
            name = {("i2f", False): "cvtdw", ("i2f", True): "cvtsw",
                    ("u2f", False): "cvtdwu", ("u2f", True): "cvtswu"}[
                        (subop, single)]
            self.emit(name, fd=freg, rs=a)
            self.finish_dest(location, freg)
            return
        if subop == "f2i":
            reg, location = self.int_dest(dest)
            a = self.fp_value(source, 0)
            single = source.ty == "f32"
            if dest.ty == "u32":
                name = "cvtwus" if single else "cvtwud"
            else:
                name = "cvtws" if single else "cvtwd"
            self.emit(name, rd=reg, fs=a)
            self.finish_dest(location, reg)
            return
        if subop in ("fext", "ftrunc"):
            freg, location = self.fp_dest(dest)
            a = self.fp_value(source, 0)
            self.emit("cvtds" if subop == "fext" else "cvtsd", fd=freg, fs=a)
            self.finish_dest(location, freg)
            return
        raise CompileError(f"unknown cast {subop!r}")  # pragma: no cover

    # -- memory -------------------------------------------------------------------

    def _emit_load(self, instr: Instr) -> None:
        base, index, offset = address_operands(instr)
        mem_ty = instr.mem_ty
        is_fp = mem_ty in ("f32", "f64")
        if is_fp:
            reg, location = self.fp_dest(instr.dest)
        else:
            reg, location = self.int_dest(instr.dest)
        if index is not None:
            base_reg = self.int_value(base, 0)
            index_reg = self.int_value(index, 1)
            name = _LOADX_OP[mem_ty]
            if is_fp:
                self.emit(name, fd=reg, rs=base_reg, rt=index_reg)
            else:
                self.emit(name, rd=reg, rs=base_reg, rt=index_reg)
        else:
            base_reg, load_offset = self._base_with_offset(base, offset)
            name = _LOAD_OP[mem_ty]
            if is_fp:
                self.emit(name, fd=reg, rs=base_reg, imm=load_offset)
            else:
                self.emit(name, rd=reg, rs=base_reg, imm=load_offset)
        if not is_fp and mem_ty in ("i8", "i16"):
            pass  # lb/lh sign-extend in the VM; nothing extra needed
        self.finish_dest(location, reg)

    def _base_with_offset(self, base: Operand, offset: int) -> tuple[int, int]:
        """Return (base register, immediate offset) for a memory access."""
        if isinstance(base, GlobalRef):
            reg = SCRATCH[0]
            self.emit("li", rd=reg, label=base.name)
            return reg, offset
        return self.int_value(base, 0), offset

    def _emit_store(self, instr: Instr) -> None:
        base, index, offset = address_operands(instr)
        value = instr.args[-1]
        mem_ty = instr.mem_ty
        if mem_ty in ("f32", "f64"):
            value_reg = self.fp_value(value, 0)
            if index is not None:
                base_reg = self.int_value(base, 0)
                index_reg = self.int_value(index, 1)
                self.emit(_STOREX_OP[mem_ty], ft=value_reg, rs=base_reg,
                          rd=index_reg)
            else:
                base_reg, store_offset = self._base_with_offset(base, offset)
                self.emit(_STORE_OP[mem_ty], ft=value_reg, rs=base_reg,
                          imm=store_offset)
            return
        if index is not None:
            in_reg = (
                isinstance(index, Temp) and self.loc(index).kind == "reg"
            )
            if in_reg:
                value_reg = self.int_value(value, 1)
                base_reg = self.int_value(base, 0)
                self.emit(_STOREX_OP[mem_ty], rt=value_reg, rs=base_reg,
                          rd=self.loc(index).index)
            else:
                # Index needs materialization: fold the address into r5
                # first so value can safely use r6 afterwards.
                index_reg = self.int_value(index, 0)
                if index_reg != SCRATCH[0]:
                    self.emit("mov", rd=SCRATCH[0], rs=index_reg)
                base_reg = self.int_value(base, 1)
                self.emit("add", rd=SCRATCH[0], rs=SCRATCH[0], rt=base_reg)
                value_reg = self.int_value(value, 1)
                self.emit(_STORE_OP[mem_ty], rt=value_reg, rs=SCRATCH[0],
                          imm=0)
        else:
            value_reg = self.int_value(value, 1)
            base_reg, store_offset = self._base_with_offset(base, offset)
            self.emit(_STORE_OP[mem_ty], rt=value_reg, rs=base_reg,
                      imm=store_offset)

    # -- calls ------------------------------------------------------------------

    def _emit_call(self, instr: Instr) -> None:
        args = list(instr.args)
        target: Operand | None = None
        if instr.op == "icall":
            target = args.pop(0)
        int_index, fp_index, stack_arg = 0, 0, 0
        # Stage 1: push stack args and gather register moves.
        reg_moves: list[tuple[int, Operand]] = []
        fp_moves: list[tuple[int, Operand]] = []
        for arg in args:
            if isinstance(arg, Temp) and arg.ty in ("f32", "f64") or (
                isinstance(arg, Const) and arg.ty in ("f32", "f64")
            ):
                if fp_index < len(FREG_ARGS):
                    fp_moves.append((FREG_ARGS[fp_index], arg))
                    fp_index += 1
                else:
                    freg = self.fp_value(arg, 0)
                    self.emit("sfd", ft=freg, rs=REG_SP, imm=stack_arg * 8)
                    stack_arg += 1
            else:
                if int_index < len(REG_ARGS):
                    reg_moves.append((REG_ARGS[int_index], arg))
                    int_index += 1
                else:
                    reg = self.int_value(arg, 0)
                    self.emit("sw", rt=reg, rs=REG_SP, imm=stack_arg * 8)
                    stack_arg += 1
        # Stage 2: indirect-call target into a scratch register *before*
        # argument registers are overwritten (it may live in r1..r4).
        target_reg = None
        if target is not None:
            target_reg = self.int_value(target, 0)
            if target_reg != SCRATCH[0]:
                self.emit("mov", rd=SCRATCH[0], rs=target_reg)
                target_reg = SCRATCH[0]
        # Stage 3: parallel-move arguments into ABI registers.  Sources
        # that are themselves argument registers are read before being
        # written because we process moves in a dependency-safe order.
        self._parallel_int_moves(reg_moves)
        self._parallel_fp_moves(fp_moves)
        # Stage 4: the transfer.
        if instr.op == "call":
            self.emit("jal", label=instr.name)
        elif instr.op == "icall":
            self.emit("jalr", rs=target_reg)
        else:
            from repro.runtime import hostapi

            spec = hostapi.HOST_FUNCTIONS.get(instr.name)
            if spec is None:
                raise CompileError(f"unknown host function {instr.name!r}")
            self.emit("hostcall", imm=spec.index)
        # Stage 5: result.
        dest = instr.dest
        if dest is not None:
            if dest.ty in ("f32", "f64"):
                freg, location = self.fp_dest(dest)
                if not (location.kind == "freg" and freg == 1):
                    self.emit("fmovd", fd=freg, fs=1)
                self.finish_dest(location, freg)
            else:
                reg, location = self.int_dest(dest)
                if not (location.kind == "reg" and reg == 1):
                    self.emit("mov", rd=reg, rs=1)
                self.finish_dest(location, reg)

    def _parallel_int_moves(self, moves: list[tuple[int, Operand]]) -> None:
        """Move values into integer argument registers.

        Register-resident sources go through the cycle-safe move graph;
        constants, global addresses and spill reloads cannot clobber any
        argument register and are emitted afterwards.
        """
        reg_moves: list[tuple[int, int]] = []
        others: list[tuple[int, Operand]] = []
        for dest, source in moves:
            if isinstance(source, Temp) and self.loc(source).kind == "reg":
                reg_moves.append((dest, self.loc(source).index))
            else:
                others.append((dest, source))
        self._move_graph(reg_moves, "int")
        for dest, source in others:
            if isinstance(source, Const):
                self.emit("li", rd=dest, imm=u32(int(source.value)))
            elif isinstance(source, GlobalRef):
                self.emit("li", rd=dest, label=source.name)
            else:
                location = self.loc(source)
                self.emit("lw", rd=dest, rs=REG_SP,
                          imm=self.frame.spill_base + location.index * 4)

    def _parallel_fp_moves(self, moves: list[tuple[int, Operand]]) -> None:
        reg_moves: list[tuple[int, int]] = []
        others: list[tuple[int, Operand]] = []
        for dest, source in moves:
            if isinstance(source, Temp) and self.loc(source).kind == "freg":
                reg_moves.append((dest, self.loc(source).index))
            else:
                others.append((dest, source))
        self._move_graph(reg_moves, "fp")
        for dest, source in others:
            if isinstance(source, Const):
                # Materialize through the pool; the address register is
                # r6 (r5 may hold an indirect-call target).
                name = self.obj_float_pool(float(source.value), source.ty)
                self.emit("li", rd=SCRATCH[1], label=name)
                self.emit("lfs" if source.ty == "f32" else "lfd",
                          fd=dest, rs=SCRATCH[1], imm=0)
            else:
                location = self.loc(source)
                self.emit("lfd", fd=dest, rs=REG_SP,
                          imm=self.frame.fspill_base + location.index * 8)

    # -- terminators ----------------------------------------------------------------

    def _emit_terminator(self, term: Instr, next_label: str | None) -> None:
        if term.op == "ret":
            if term.args:
                value = term.args[0]
                if value.ty in ("f32", "f64") if isinstance(value, Temp) else (
                    isinstance(value, Const) and value.ty in ("f32", "f64")
                ):
                    freg = self.fp_value(value, 0)
                    if freg != 1:
                        self.emit("fmovd", fd=1, fs=freg)
                else:
                    if isinstance(value, Const):
                        self.emit("li", rd=1, imm=u32(int(value.value)))
                    elif isinstance(value, GlobalRef):
                        self.emit("li", rd=1, label=value.name)
                    else:
                        reg = self.int_value(value, 0)
                        if reg != 1:
                            self.emit("mov", rd=1, rs=reg)
            self._epilogue()
            return
        if term.op == "jump":
            if term.targets[0] != next_label:
                self.emit("j", label=self.local_label(term.targets[0]))
            return
        if term.op == "br":
            self._emit_branch(term, next_label)
            return
        raise CompileError(f"bad terminator {term.op!r}")  # pragma: no cover

    def _emit_branch(self, term: Instr, next_label: str | None) -> None:
        taken, fallthrough = term.targets
        pred = term.subop
        cmp_ty = term.cmp_ty
        # Prefer to branch on the condition whose target is NOT the next
        # block, so the common path falls through.
        if taken == next_label:
            pred = ir.NEGATED_PRED[pred]
            taken, fallthrough = fallthrough, taken
        if cmp_ty in ("f32", "f64"):
            reg = SCRATCH[0]
            helper = Instr("cmp", Temp(-1, "i32"), list(term.args),
                           subop=pred, cmp_ty=cmp_ty)
            self._emit_fp_compare_to_reg(helper, reg)
            self.emit("bnei", rs=reg, imm2=0, label=self.local_label(taken))
        else:
            signed = ir.is_signed(cmp_ty)
            a_op, b_op = term.args
            if isinstance(a_op, Const) and not isinstance(b_op, Const):
                a_op, b_op = b_op, a_op
                pred = ir.SWAPPED_PRED[pred]
            if isinstance(b_op, Const) and _IMM2_MIN <= s32(int(b_op.value)) <= _IMM2_MAX:
                a = self.int_value(a_op, 0)
                name = _BRANCH[(pred, signed)] + "i"
                self.emit(name, rs=a, imm2=s32(int(b_op.value)),
                          label=self.local_label(taken))
            else:
                a = self.int_value(a_op, 0)
                b = self.int_value(b_op, 1)
                self.emit(_BRANCH[(pred, signed)], rs=a, rt=b,
                          label=self.local_label(taken))
        if fallthrough != next_label:
            self.emit("j", label=self.local_label(fallthrough))


def generate_object(
    module: Module,
    regfile: RegisterFile | None = None,
    num_regs: int = 16,
) -> ObjectModule:
    """Generate an OmniVM object module from an IR module."""
    regfile = regfile or omnivm_register_file(num_regs)
    obj = ObjectModule(module.name)
    with metrics.stage("codegen"):
        _emit_globals(module, obj)
        for index, func in enumerate(module.functions):
            emitter = FunctionEmitter(func, obj, regfile, index)
            emitter.run()
    obj.declare_imports()
    if metrics.active():
        metrics.count("codegen.omni_instrs", len(obj.text))
    return obj


def _emit_globals(module: Module, obj: ObjectModule) -> None:
    data = bytearray(obj.data)
    for glob in module.globals:
        offset = align_up(len(data), max(glob.align, 1))
        data.extend(b"\x00" * (offset - len(data)))
        image = glob.image + b"\x00" * (glob.size - len(glob.image))
        data.extend(image)
        obj.define(glob.name, "data", offset, is_global=not glob.name.startswith("."))
        for reloc_offset, symbol in glob.relocs:
            obj.data_relocs.append(DataReloc(offset + reloc_offset, symbol))
    obj.data = bytes(data)
