"""Seeded input generators for the workloads.

Every generator returns plain JSON-able data (strings, numbers, lists and
dicts) derived only from its seed and shape arguments, so the same seed
gives byte-identical inputs and the program under test receives nothing
but the generated inputs. Names are lower-case letters and digits only;
they are neither chosen to avoid nor to provoke any file-name clash.
"""
from __future__ import annotations

import math
import random
from statistics import NormalDist

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Client flags of the churn workload; the universe's conditionals are
# written against them so that every app pulls exactly LIBS_PER_APP libs.
CLIENT_FLAGS = ("gui", "ssl", "unicode")
LIBS_PER_APP = 4


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


def _words(rng: random.Random, count: int, length: int) -> list[str]:
    """``count`` distinct words, none a substring of another."""
    out: list[str] = []
    while len(out) < count:
        word = _word(rng, length)
        if all(word not in other and other not in word for other in out):
            out.append(word)
    return out


def _versions(rng: random.Random, count: int) -> list[str]:
    picked: set[tuple[int, int]] = set()
    while len(picked) < count:
        picked.add((rng.randint(1, 9), rng.randint(0, 9)))
    return [f"{major}.{minor}" for major, minor in sorted(picked)]


def job_set(seed: int, jobs: int, median_s: float, sigma: float) -> list[dict]:
    """``jobs`` build jobs with log-normal durations, longest first.

    Durations are stratified: job i draws from the i-th of ``jobs`` equal
    probability bands of the log-normal, so every seed has the same spread
    of sizes and the longest job stays bounded. Submitting longest first
    keeps the makespan, and with it the number of simulated events, nearly
    the same for every seed.
    """
    rng = random.Random(f"jobs:{seed}")
    dist = NormalDist(math.log(median_s), sigma)
    durations = sorted(
        (
            round(math.exp(dist.inv_cdf((i + rng.uniform(0.1, 0.9)) / jobs)), 2)
            for i in range(jobs)
        ),
        reverse=True,
    )
    categories = _words(rng, 4, 5)
    names = _words(rng, jobs, 7)
    return [
        {
            "package": f"{rng.choice(categories)}/{name}",
            "version": rng.choice(("1.0", "2.3", "4.1", "10.2")),
            "duration": duration,
        }
        for name, duration in zip(names, durations)
    ]


def universe(seed: int, cores: int, apps: int) -> dict:
    """A package universe of core libraries and apps with private libs.

    Each app depends on two core libraries and, under ``CLIENT_FLAGS``,
    exactly ``LIBS_PER_APP`` private libraries (one unconditional, the rest
    behind ``flag? ( ... )`` and ``!flag? ( ... )`` groups, one nested);
    groups on flags the client does not set name core libraries only. A
    private library depends on core libraries only. Once the core set is
    installed an app's plan is therefore always ``1 + LIBS_PER_APP``
    packages. Every package has three versions with the same dependencies.
    Each app's name is a word that occurs in no other name except its own
    libraries', so searching for it matches exactly ``1 + LIBS_PER_APP``
    packages.
    """
    rng = random.Random(f"universe:{seed}")
    words = _words(rng, 1 + 6 + cores + apps, 6)
    core_category, app_categories = words[0], words[1:7]
    core_names = [f"{w}{i}" for i, w in enumerate(words[7:7 + cores])]
    app_words = words[7 + cores:]

    packages: list[dict] = []

    def add(package: str, deps: list[str]) -> None:
        versions = _versions(rng, 3)
        packages.append(
            {
                "name": package,
                "description": " ".join(_word(rng, 5) for _ in range(4)),
                "versions": {v: {"dependencies": deps} for v in versions},
            }
        )

    core = [f"{core_category}/{name}" for name in core_names]
    for i, package in enumerate(core):
        earlier = rng.sample(core[:i], min(i, 2))
        add(package, [f">={dep}-1.0" for dep in earlier])

    app_list = []
    for word in app_words:
        category = rng.choice(app_categories)
        app = f"{category}/{word}"
        # A digit ends the word, so no other word can match across it.
        libs = [f"{category}/{word}{k}" for k in range(LIBS_PER_APP)]
        a, b, c, d = rng.sample(core, 4)
        add(
            app,
            [
                f">={a}-1.0",
                b,
                libs[0],
                f"ssl? ( {libs[1]} )",
                f"!static? ( {libs[2]} gui? ( >={libs[3]}-1.0 ) )",
                f"static? ( {c} )",
                f"!unicode? ( {d} )",
            ],
        )
        for lib in libs:
            x, y = rng.sample(core, 2)
            add(lib, [x, f"unicode? ( >={y}-1.0 )"])
        app_list.append({"package": app, "term": word, "libs": libs})
    return {"packages": packages, "core": core, "apps": app_list}
