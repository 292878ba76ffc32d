"""Exception types raised across the package.

Everything user-facing derives from PacloudError so the CLI can report
any operational failure with a single handler.
"""


class PacloudError(Exception):
    """Base class for all pacloud errors."""


# --- value types ---

class MalformedPackageId(PacloudError):
    pass


class MalformedVersion(PacloudError):
    pass


class MalformedUseFlag(PacloudError):
    pass


class MalformedBuildKey(PacloudError):
    pass


# --- dependency / ebuild parsing ---

class MalformedAtom(PacloudError):
    pass


class UnbalancedParenthesis(PacloudError):
    pass


class DanglingConditional(PacloudError):
    pass


class UnsupportedEbuildConstruct(PacloudError):
    """A bash construct outside the supported ebuild subset."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyInput(PacloudError):
    pass


class DuplicateVersion(PacloudError):
    pass


# --- resolution ---

class MissingPackage(PacloudError):
    pass


class NoMatchingVersion(PacloudError):
    pass


class ConflictingAtoms(PacloudError):
    pass


class NotInstalled(PacloudError):
    pass


class StillRequired(PacloudError):
    pass


# --- local database / store ---

class StoreUnreachable(PacloudError):
    pass


class MalformedManifest(PacloudError):
    pass


class MalformedCategoryDocument(PacloudError):
    pass


class UnknownPackage(PacloudError):
    pass


class UnknownVersion(PacloudError):
    pass


# --- client ---

class MalformedConfigLine(PacloudError):
    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MalformedConfigValue(PacloudError):
    pass


class MissingServerUrl(PacloudError):
    pass


class ProtocolError(PacloudError):
    pass


class TransportError(PacloudError):
    pass


class BuildFailed(PacloudError):
    """The server reports the build failed; carries the server's error text."""

    def __init__(self, error: str):
        super().__init__(error)
        self.error = error


class BuildTimeout(PacloudError):
    pass


class UnpackError(PacloudError):
    pass


class UsageError(PacloudError):
    pass


# --- farm ---

class FarmStateError(PacloudError):
    """A farm journal cannot be loaded, or the farm root holds a file of an
    earlier layout; the message names the file."""


# --- benchmarks ---

class UnknownMachine(PacloudError):
    pass
