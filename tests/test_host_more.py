"""Additional host-service and adapter coverage across engines."""

import math

import pytest

from repro.compiler import CompileOptions, compile_and_link
from repro.engine import INTERPRETER, Engine
from repro.runtime import hostapi
from repro.runtime.host import Host
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


#: Host math calls Python's ``math`` raises on, with C99 Annex F's
#: result: ``(id, call, expected)``, where ``inf`` is
#: ``host_exp(1000.0)`` and ``nan`` is ``inf - inf``.
NON_FINITE_CASES = [
    ("floor_inf", "host_floor(inf)", math.inf),
    ("floor_neg_inf", "host_floor(-inf)", -math.inf),
    ("floor_nan", "host_floor(nan)", math.nan),
    ("sin_inf", "host_sin(inf)", math.nan),
    ("sin_neg_inf", "host_sin(-inf)", math.nan),
    ("cos_inf", "host_cos(inf)", math.nan),
    ("cos_neg_inf", "host_cos(-inf)", math.nan),
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
    """``host_floor``, ``host_sin`` and ``host_cos`` of an infinity or
    a NaN return a value on every executor instead of raising Python's
    ``OverflowError`` or ``ValueError`` out of the module, and finite
    arguments keep their results."""

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
        assert finite == FINITE

    def test_served_request_is_ok(self):
        source = _non_finite_source("host_floor(-inf)")
        with Engine().serve(workers=1) as host:
            response = host.run(ModuleRequest(program=source))
        assert response.ok, response.error
        assert response.output == "-inf" + format(FINITE, ".6g")
