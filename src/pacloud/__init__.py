"""pacloud: a cloud-build package manager at desk scale.

The client resolves runtime dependencies locally, keeps a flat-file
database, and requests binaries per (package, version, USE-flag set) from
a build service. The farm side answers those requests from a build-record
table, queues compile work with at-least-once delivery, and runs spot
style workers that survive interruption through hibernation. A benchmark
harness replays parallel build scenarios on a virtual clock.
"""

from .core import (
    BuildKey,
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    Version,
    atom_matches,
    compare_versions,
    parse_version,
    select_best_version,
)
from .errors import PacloudError

__all__ = [
    "BuildKey",
    "DependencyAtom",
    "PackageId",
    "PacloudError",
    "Specifier",
    "UseFlagSet",
    "Version",
    "atom_matches",
    "compare_versions",
    "parse_version",
    "select_best_version",
]
