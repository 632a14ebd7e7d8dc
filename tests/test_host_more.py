"""Additional host-service and adapter coverage across engines."""

import itertools
import math

import pytest

from repro.compiler import CompileOptions, compile_and_link
from repro.engine import INTERPRETER, Engine
from repro.errors import ReproError
from repro.omnivm.memory import standard_module_memory
from repro.runtime import hostapi
from repro.runtime.host import Host, MachineAdapter
from repro.runtime.loader import run_module
from repro.runtime.native_loader import run_on_target
from repro.native.profiles import MOBILE_SFI
from repro.service import ModuleRequest
from repro.translators import ARCHITECTURES


class TestHostApiTable:
    def test_indices_are_dense_and_unique(self):
        indices = sorted(hostapi.HOST_FUNCTIONS_BY_INDEX)
        assert indices == list(range(len(indices)))

    def test_names_unique(self):
        assert len(hostapi.HOST_FUNCTIONS) == len(hostapi._HOST_FUNCTIONS)

    def test_lookup(self):
        assert hostapi.lookup("emit_int").index == 1
        with pytest.raises(KeyError):
            hostapi.lookup("no_such_call")

    def test_signature_kinds_valid(self):
        for fn in hostapi.HOST_FUNCTIONS.values():
            assert fn.result in ("int", "uint", "double", "ptr", "void")
            for param in fn.params:
                assert param in ("int", "uint", "double", "ptr")


class TestAdaptersAgreeAcrossEngines:
    """The same host-calling program must produce identical host-side
    state whether interpreted or translated — argument marshalling goes
    through different register files on each engine."""

    SOURCE = """
    int main() {
        emit_int(-5);
        emit_uint(0xFFFFFFFF);
        emit_char('Z');
        emit_double(2.5);
        emit_double(host_pow(2.0, 10.0));
        int *p = (int *) halloc(8);
        p[0] = 123;
        emit_int(p[0]);
        emit_int(host_rand());
        return 0;
    }
    """

    def test_all_engines_identical_host_state(self):
        program = compile_and_link([self.SOURCE])
        _code, reference_host = run_module(program)
        reference = reference_host.output_values()
        assert reference[0] == -5
        assert reference[1] == 0xFFFFFFFF
        assert reference[3] == 2.5 and reference[4] == 1024.0
        for arch in ARCHITECTURES:
            _code, module = run_on_target(program, arch, MOBILE_SFI)
            assert module.host.output_values() == reference, arch

    def test_fp_args_beyond_int_args(self):
        source = """
        int main() {
            emit_double(host_pow(3.0, 4.0));  /* two FP args */
            return 0;
        }
        """
        program = compile_and_link([source])
        for arch in ARCHITECTURES:
            _code, module = run_on_target(program, arch, MOBILE_SFI)
            assert module.host.output_values() == [81.0], arch


class TestOutputRendering:
    def test_mixed_stream(self):
        host = Host()
        host.output = [("str", b"n="), ("int", 3), ("char", 10),
                       ("double", 0.5), ("uint", 7)]
        assert host.output_text() == "n=3\n0.57"

    def test_srand_resets_sequence(self):
        program = compile_and_link(["""
        int main() {
            host_srand(42);
            int a = host_rand();
            host_srand(42);
            int b = host_rand();
            emit_int(a == b);
            return 0;
        }
        """])
        _code, host = run_module(program)
        assert host.output_values() == [1]


#: Host math calls whose C99 Annex F result Python's ``math`` does not
#: return as is (it raises, or the argument was once screened to 0.0):
#: ``(id, call, expected)``, where ``inf`` is ``host_exp(1000.0)``,
#: ``nan`` is ``inf - inf`` and ``-1.0 / inf`` is a negative zero.
NON_FINITE_CASES = [
    ("floor_inf", "host_floor(inf)", math.inf),
    ("floor_neg_inf", "host_floor(-inf)", -math.inf),
    ("floor_nan", "host_floor(nan)", math.nan),
    ("sin_inf", "host_sin(inf)", math.nan),
    ("sin_neg_inf", "host_sin(-inf)", math.nan),
    ("cos_inf", "host_cos(inf)", math.nan),
    ("cos_neg_inf", "host_cos(-inf)", math.nan),
    ("pow_overflow", "host_pow(10.0, 400.0)", math.inf),
    ("pow_negative_overflow", "host_pow(-10.0, 401.0)", -math.inf),
    ("pow_fractional_power", "host_pow(-8.0, 0.5)", math.nan),
    ("pow_pole", "host_pow(0.0, -1.0)", math.inf),
    ("pow_negative_pole", "host_pow(-1.0 / inf, -1.0)", -math.inf),
    ("pow_even_pole", "host_pow(-1.0 / inf, -2.0)", math.inf),
    ("sqrt_negative", "host_sqrt(-1.0)", math.nan),
    ("sqrt_nan", "host_sqrt(nan)", math.nan),
    ("log_negative", "host_log(-1.0)", math.nan),
    ("log_nan", "host_log(nan)", math.nan),
]

#: The sum of the finite calls every case program also makes.
FINITE = -3.0 + math.sin(1.0) + math.cos(1.0)


def _non_finite_source(call):
    return f"""
    int main() {{
        double inf = host_exp(1000.0);
        double nan = inf - inf;
        emit_double({call});
        emit_double(host_floor(-2.5) + host_sin(1.0) + host_cos(1.0));
        return 0;
    }}
    """


class TestNonFiniteHostMath:
    """Host math calls with infinite, NaN, out-of-domain, overflowing or
    pole arguments give C99 Annex F's result on every executor instead
    of raising Python's ``OverflowError`` or ``ValueError`` out of the
    module or answering 0.0, and finite arguments keep their
    results."""

    @pytest.mark.parametrize("executor", [INTERPRETER, *ARCHITECTURES])
    @pytest.mark.parametrize(
        "call,expected", [case[1:] for case in NON_FINITE_CASES],
        ids=[case[0] for case in NON_FINITE_CASES])
    def test_every_executor(self, call, expected, executor):
        code, module = Engine().run(_non_finite_source(call),
                                    target=executor)
        result, finite = module.host.output_values()
        assert code == 0
        if math.isnan(expected):
            assert math.isnan(result)
        else:
            assert result == expected
            assert math.copysign(1.0, result) == math.copysign(1.0, expected)
        assert finite == FINITE

    def test_served_request_is_ok(self):
        with Engine().serve(workers=1) as host:
            responses = host.run_batch([
                ModuleRequest(program=_non_finite_source(call))
                for _id, call, _expected in NON_FINITE_CASES])
        for (_id, _call, expected), response in zip(NON_FINITE_CASES,
                                                    responses):
            assert response.ok, response.error
            assert response.output == (format(expected, ".6g")
                                       + format(FINITE, ".6g"))


class _StubAdapter(MachineAdapter):
    """Hands the host fixed arguments and records what it sets."""

    def __init__(self, memory, ints, doubles):
        self.memory = memory
        self.ints = ints
        self.doubles = doubles
        self.result = None

    def get_int_arg(self, index):
        return self.ints[index]

    def get_fp_arg(self, index):
        return self.doubles[index]

    def set_int_result(self, value):
        self.result = value

    def set_fp_result(self, value):
        self.result = value

    def halt(self, code):
        pass

    def instret(self):
        return 0


#: Boundary doubles for every ``double`` parameter.
BOUNDARY_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308,
                    -1e308, 5e-324, -8.0, 0.5, 400.0]


class TestEveryHostCallIsTotal:
    """Every host function, called at the host boundary with boundary
    arguments, sets its result or raises a typed
    :class:`~repro.errors.ReproError`, never a raw Python exception.
    Integer arguments are s32 and u32 extremes and pointers at the data
    segment's first and last byte and one past each end; two arguments
    take every combination, three the diagonal."""

    @pytest.mark.parametrize("name", [name for name in hostapi.HOST_FUNCTIONS
                                      if name != "sethandler"])
    def test_boundary_arguments(self, name):
        # A small segment, so a read of up to 2 GiB from the data
        # segment faults at its end instead of walking the heap.
        memory = standard_module_memory(b"\0" * 64, b"\0" * 64, 1 << 16)
        data = next(s for s in memory.segments if s.name == "data")
        ints = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, data.base,
                data.limit - 1, data.base - 1, data.limit]
        spec = hostapi.HOST_FUNCTIONS[name]
        choices = [BOUNDARY_DOUBLES if param == "double" else ints
                   for param in spec.params]
        grid = (itertools.product(*choices) if len(choices) < 3
                else zip(*choices))
        for args in grid:
            host = Host(exports=set(hostapi.HOST_FUNCTIONS))
            host.inbox = [b"hello", b"x" * 300]
            adapter = _StubAdapter(
                memory,
                [a for a, p in zip(args, spec.params) if p != "double"],
                [a for a, p in zip(args, spec.params) if p == "double"])
            try:
                host.hostcall(adapter, spec.index)
            except ReproError:
                continue
            if spec.result == "double":
                assert isinstance(adapter.result, float), args
            elif spec.result != "void":
                assert isinstance(adapter.result, int), args
