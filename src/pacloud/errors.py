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


# --- dependency strings ---

class MalformedAtom(PacloudError):
    pass


class UnbalancedParenthesis(PacloudError):
    pass


class DanglingConditional(PacloudError):
    pass


class UnsupportedEbuildConstruct(PacloudError):
    """An OR group (``|| ( ... )``), which dependency strings may not hold."""


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
    """A store or database document is malformed; a file read is named."""


class DatabaseLayoutError(PacloudError):
    """The client database is of an earlier layout."""


class UnknownPackage(PacloudError):
    pass


class UnknownVersion(PacloudError):
    pass


# --- client ---

class MalformedConfigLine(PacloudError):
    """A configuration file that does not parse; the message names the
    line when the parser reports one."""

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
