"""Exception hierarchy for the repro package.

Every error raised by the compiler, assembler, linker, translators, runtime,
and simulators derives from :class:`ReproError`, so host applications can
catch one type at the embedding boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourceLocation:
    """A position in a source file (1-based line and column)."""

    __slots__ = ("filename", "line", "col")

    def __init__(self, filename: str = "<input>", line: int = 0, col: int = 0):
        self.filename = filename
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"

    def __repr__(self) -> str:
        return f"SourceLocation({self.filename!r}, {self.line}, {self.col})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.filename, self.line, self.col) == (
            other.filename,
            other.line,
            other.col,
        )


class CompileError(ReproError):
    """An error detected while compiling source code.

    Carries an optional :class:`SourceLocation` so front ends can report
    precise positions.
    """

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc
        if loc is not None:
            message = f"{loc}: {message}"
        super().__init__(message)


class LexError(CompileError):
    """Invalid token in source text."""


class ParseError(CompileError):
    """Syntactically invalid source text."""


class TypeError_(CompileError):
    """Semantic (type) error.  Named with a trailing underscore to avoid
    shadowing the builtin."""


class IRError(ReproError):
    """Malformed IR detected by the verifier or a pass."""


class AsmError(ReproError):
    """Error while assembling OmniVM assembly text."""


class EncodingError(ReproError):
    """Error while encoding or decoding OmniVM binary instructions."""


class ObjectFormatError(ReproError):
    """Malformed Omniware object file."""


class LinkError(ReproError):
    """Unresolved or duplicate symbols, section overflow, etc."""


class DynamicLinkError(LinkError):
    """Base class for errors resolving imports/exports across separately
    translated modules at load time (:mod:`repro.runtime.linker`).

    Subclasses :class:`LinkError` so callers that already handle static
    link failures keep working, while the service and CLI can map the
    dynamic-link cases to distinct counters and exit codes.
    """


class UnresolvedImportError(DynamicLinkError):
    """A module imports a symbol that no registered module exports."""

    def __init__(self, symbol: str, importer: str = ""):
        self.symbol = symbol
        self.importer = importer
        message = f"unresolved import {symbol!r}"
        if importer:
            message += f" (required by module {importer!r})"
        super().__init__(message)


class DuplicateExportError(DynamicLinkError):
    """Two modules in the same link closure export the same symbol."""

    def __init__(self, symbol: str, modules: tuple[str, ...] = ()):
        self.symbol = symbol
        self.modules = tuple(modules)
        message = f"duplicate export {symbol!r}"
        if self.modules:
            message += f" (exported by modules {', '.join(self.modules)})"
        super().__init__(message)


class ModuleCycleError(DynamicLinkError):
    """The import graph of a link closure contains a cycle, so no
    canonical dependencies-first layout exists."""

    def __init__(self, cycle: tuple[str, ...] = ()):
        self.cycle = tuple(cycle)
        message = "import cycle between modules"
        if self.cycle:
            message += ": " + " -> ".join(self.cycle + (self.cycle[0],))
        super().__init__(message)


class ModuleRevokedError(DynamicLinkError):
    """A link closure references a module that has been revoked from the
    registry (or an image built against a now-revoked module epoch)."""

    def __init__(self, name: str, epoch: int | None = None):
        self.name = name
        self.epoch = epoch
        message = f"module {name!r} has been revoked"
        if epoch is not None:
            message += f" (epoch {epoch})"
        super().__init__(message)


class VerifyError(ReproError):
    """A module failed load-time verification."""


class CrossModuleViolation(VerifyError):
    """A module references another module's code other than through an
    exported symbol (direct jump/call into a non-exported address, or a
    materialized code pointer crossing the module boundary)."""

    def __init__(self, message: str, module: str = "", target: int = 0):
        super().__init__(message)
        self.module = module
        self.target = target


class TranslationError(ReproError):
    """The load-time translator could not translate a module."""


class UnknownArchitectureError(ReproError, KeyError):
    """A caller named a target architecture no translator is registered
    for.

    Raised from one place — the translator registry — so the compiler
    driver, both loaders, the Engine facade, and the CLI all report the
    same error with the list of supported architectures.  Subclasses
    :class:`KeyError` for compatibility with callers that treated the
    registry as a plain dict.
    """

    def __init__(self, arch: object, known: tuple[str, ...] = ()):
        self.arch = arch
        self.known = tuple(known)
        message = f"unknown target architecture {arch!r}"
        if self.known:
            message += f"; supported: {', '.join(self.known)}"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class VMError(ReproError):
    """Base class for errors during OmniVM or target simulation."""


class AccessViolation(VMError):
    """An unauthorized memory access.

    Under the OmniVM exception model this is delivered to the module's
    registered handler if there is one; it only escapes as a Python
    exception when the module has no handler installed.
    """

    def __init__(self, message: str, address: int = 0, kind: str = "store"):
        super().__init__(message)
        self.address = address
        self.kind = kind


class SandboxViolation(VMError):
    """Translated native code attempted to escape its SFI sandbox.

    This indicates a translator bug: correctly sandboxed code can never
    raise it, which is what the SFI verifier and tests assert.
    """


class HostCallError(VMError):
    """A module invoked an unknown or unauthorized host API entry."""


class VMTrap(VMError):
    """Module executed an explicit trap/abort instruction."""

    def __init__(self, message: str = "trap", code: int = 0):
        super().__init__(message)
        self.code = code


class VMRuntimeError(VMError):
    """Dynamic error during simulation (division by zero, bad opcode...)."""


class FuelExhausted(VMError):
    """The simulation exceeded its instruction budget (guards against
    non-terminating modules in tests)."""


class ServiceError(ReproError):
    """Base class for errors raised by the module-hosting service
    (:mod:`repro.service`)."""


class DeadlineExceeded(ServiceError):
    """A hosted request's wall-clock deadline expired before the module
    finished.

    The service watchdog enforces deadlines by cutting the running
    machine's fuel, so the module stops at its next instruction
    boundary; the resulting :class:`FuelExhausted` is converted into
    this type when the deadline — not the fuel quota — was the cause.
    """

    def __init__(self, message: str = "deadline exceeded",
                 deadline_seconds: float | None = None):
        super().__init__(message)
        self.deadline_seconds = deadline_seconds


class QuotaExceeded(ServiceError):
    """A hosted request exceeded a per-request resource quota (e.g. the
    output-byte cap)."""

    def __init__(self, message: str, quota: str = "",
                 limit: int | None = None):
        super().__init__(message)
        self.quota = quota
        self.limit = limit


class ServiceOverloaded(ServiceError):
    """The service's bounded request queue is full; the request was
    rejected rather than queued (graceful degradation under load)."""


class TransientFault(ServiceError):
    """A request failed for a reason outside the module, so a plain
    retry by the client is safe: the sharded service fails requests
    that were in flight on a crashed worker process with this type."""


# -- cross-process serialization ----------------------------------------------
#
# The sharded service (:mod:`repro.service_router`) runs requests in
# worker processes; typed errors raised there (register/revoke failures,
# the dynamic-link family, quota violations, ...) must cross the process
# boundary and re-raise in the router as the *same* classes, or callers
# lose the typed contract the threaded :class:`repro.service.ModuleHost`
# provides.  ``serialize_error`` / ``deserialize_error`` are that wire
# format: a plain JSON-able dict carrying the class name, the message,
# and the class-specific attributes needed to reconstruct the exception.

#: Attributes (beyond the message) each error class round-trips, in the
#: positional order its constructor takes them.  Classes not listed
#: reconstruct from the message alone.
_ERROR_SIGNATURES: dict[str, tuple[str, ...]] = {
    "UnresolvedImportError": ("symbol", "importer"),
    "DuplicateExportError": ("symbol", "modules"),
    "ModuleCycleError": ("cycle",),
    "ModuleRevokedError": ("name", "epoch"),
    "UnknownArchitectureError": ("arch", "known"),
}

#: Classes whose constructor takes (message, *attrs) keyword attributes.
_MESSAGE_PLUS_ATTRS: dict[str, tuple[str, ...]] = {
    "DeadlineExceeded": ("deadline_seconds",),
    "QuotaExceeded": ("quota", "limit"),
    "AccessViolation": ("address", "kind"),
    "VMTrap": ("code",),
    "CrossModuleViolation": ("module", "target"),
}


def _error_classes() -> dict[str, type]:
    """Every concrete ``ReproError`` subclass in this module, by name."""
    classes: dict[str, type] = {"ReproError": ReproError}
    pending = [ReproError]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__name__ not in classes:
                classes[sub.__name__] = sub
                pending.append(sub)
    return classes


def serialize_error(err: BaseException) -> dict:
    """A picklable/JSON-able description of *err* for the cross-process
    service protocol.  Round-trips every class in this module through
    :func:`deserialize_error`; foreign exception types degrade to their
    class name plus message (deserialized as :class:`ReproError`)."""
    name = type(err).__name__
    payload: dict = {"type": name, "message": str(err)}
    attrs: dict = {}
    for attr in _ERROR_SIGNATURES.get(name, ()) \
            + _MESSAGE_PLUS_ATTRS.get(name, ()):
        value = getattr(err, attr, None)
        if isinstance(value, (tuple, frozenset)):
            value = list(value)
        attrs[attr] = value
    if attrs:
        payload["attrs"] = attrs
    return payload


def deserialize_error(payload: dict) -> ReproError:
    """Reconstruct the typed exception :func:`serialize_error` described.

    Unknown class names (a newer worker talking to an older router, or a
    non-Repro exception) come back as a plain :class:`ReproError`
    carrying the original class name in the message — never an
    unhandled KeyError, so a malformed payload cannot take the router
    down."""
    name = payload.get("type", "ReproError")
    message = payload.get("message", "")
    attrs = payload.get("attrs", {}) or {}
    cls = _error_classes().get(name)
    if cls is None:
        return ReproError(f"{name}: {message}")
    try:
        if name in _ERROR_SIGNATURES:
            args = []
            for attr in _ERROR_SIGNATURES[name]:
                value = attrs.get(attr)
                args.append(tuple(value) if isinstance(value, list)
                            else value)
            return cls(*args)
        if name in _MESSAGE_PLUS_ATTRS:
            kwargs = {attr: attrs.get(attr)
                      for attr in _MESSAGE_PLUS_ATTRS[name]
                      if attrs.get(attr) is not None}
            return cls(message, **kwargs)
        return cls(message)
    except Exception:
        return ReproError(f"{name}: {message}")
